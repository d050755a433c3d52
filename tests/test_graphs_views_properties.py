"""Tests for graph views (ego/subgraph) and summary statistics."""

import pytest

from repro.errors import NodeNotFoundError
from repro.graphs import (
    DiGraph,
    Graph,
    complete_graph,
    degree_histogram,
    density,
    ego_graph,
    path_graph,
    star_graph,
    summarize,
)


class TestEgoGraph:
    def test_radius_zero(self):
        g = path_graph(5)
        ego = ego_graph(g, 2, radius=0)
        assert set(ego.nodes()) == {2}

    def test_radius_one(self):
        g = star_graph(5)
        ego = ego_graph(g, 0, radius=1)
        assert ego.number_of_nodes() == 6

    def test_radius_two_on_path(self):
        g = path_graph(7)
        ego = ego_graph(g, 3, radius=2)
        assert set(ego.nodes()) == {1, 2, 3, 4, 5}

    def test_directed_follows_out_edges(self):
        d = DiGraph()
        d.add_edges([("a", "b"), ("c", "a")])
        ego = ego_graph(d, "a", radius=1)
        assert set(ego.nodes()) == {"a", "b"}

    def test_missing_center_raises(self):
        with pytest.raises(NodeNotFoundError):
            ego_graph(Graph(), "x", 1)

    def test_negative_radius_raises(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            ego_graph(g, 0, -1)


class TestDensity:
    def test_empty_and_single(self):
        assert density(Graph()) == 0.0
        g = Graph()
        g.add_node(1)
        assert density(g) == 0.0

    def test_complete_density_one(self):
        assert density(complete_graph(5)) == 1.0

    def test_directed_density(self):
        d = DiGraph()
        d.add_nodes([1, 2])
        d.add_edge(1, 2)
        assert density(d) == 0.5


class TestSummary:
    def test_degree_histogram(self):
        g = star_graph(3)
        assert degree_histogram(g) == {3: 1, 1: 3}

    def test_summarize_fields(self):
        g = complete_graph(4)
        g.set_node_attr(0, "color", "red")
        s = summarize(g)
        assert s.n_nodes == 4
        assert s.n_edges == 6
        assert s.max_degree == 3
        assert s.mean_degree == 3.0
        assert s.n_isolated == 0
        assert "color" in s.node_labels
        assert not s.directed

    def test_summarize_isolated(self):
        g = Graph()
        g.add_nodes([1, 2])
        s = summarize(g)
        assert s.n_isolated == 2

    def test_as_dict_json_ready(self):
        import json
        json.dumps(summarize(complete_graph(3)).as_dict())
