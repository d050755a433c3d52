"""Tests for the core Graph/DiGraph data structures."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.graphs import DiGraph, Graph


class TestGraphConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert len(g) == 0
        assert g.number_of_edges() == 0
        assert list(g.nodes()) == []
        assert list(g.edges()) == []

    def test_add_node_with_attrs(self):
        g = Graph()
        g.add_node("a", color="red")
        assert g.has_node("a")
        assert g.get_node_attr("a", "color") == "red"

    def test_add_node_merges_attrs(self):
        g = Graph()
        g.add_node("a", color="red")
        g.add_node("a", size=3)
        assert g.node_attrs("a") == {"color": "red", "size": 3}

    def test_none_node_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_node(None)

    def test_add_edge_creates_endpoints(self):
        g = Graph()
        g.add_edge(1, 2, weight=0.5)
        assert g.has_node(1) and g.has_node(2)
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert g.get_edge_attr(1, 2, "weight") == 0.5

    def test_undirected_edge_attrs_shared(self):
        g = Graph()
        g.add_edge("a", "b")
        g.set_edge_attr("b", "a", "w", 7)
        assert g.get_edge_attr("a", "b", "w") == 7

    def test_re_add_edge_merges_attrs(self):
        g = Graph()
        g.add_edge(1, 2, w=1)
        g.add_edge(1, 2, c="x")
        assert g.edge_attrs(1, 2) == {"w": 1, "c": "x"}
        assert g.number_of_edges() == 1

    def test_self_loop(self):
        g = Graph()
        g.add_edge("a", "a")
        assert g.has_edge("a", "a")
        assert g.number_of_edges() == 1
        assert g.degree("a") == 2  # self-loop counts twice

    def test_add_nodes_and_edges_bulk(self):
        g = Graph()
        g.add_nodes(range(3))
        g.add_edges([(0, 1), (1, 2)])
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 2


class TestGraphRemoval:
    def test_remove_edge(self):
        g = Graph()
        g.add_edge(1, 2)
        g.remove_edge(2, 1)
        assert not g.has_edge(1, 2)
        assert g.has_node(1) and g.has_node(2)

    def test_remove_missing_edge_raises(self):
        g = Graph()
        g.add_nodes([1, 2])
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(1, 2)

    def test_remove_node_removes_incident_edges(self):
        g = Graph()
        g.add_edges([(1, 2), (2, 3), (1, 3)])
        g.remove_node(2)
        assert not g.has_node(2)
        assert g.has_edge(1, 3)
        assert g.number_of_edges() == 1

    def test_remove_missing_node_raises(self):
        with pytest.raises(NodeNotFoundError):
            Graph().remove_node("ghost")

    def test_remove_node_with_self_loop(self):
        g = Graph()
        g.add_edge("a", "a")
        g.remove_node("a")
        assert len(g) == 0


class TestGraphQueries:
    def test_neighbors(self):
        g = Graph()
        g.add_edges([(1, 2), (1, 3)])
        assert set(g.neighbors(1)) == {2, 3}
        assert set(g.neighbors(2)) == {1}

    def test_neighbors_missing_raises(self):
        with pytest.raises(NodeNotFoundError):
            list(Graph().neighbors("x"))

    def test_degree_missing_raises(self):
        with pytest.raises(NodeNotFoundError):
            Graph().degree("x")

    def test_edges_reported_once(self):
        g = Graph()
        g.add_edges([(1, 2), (2, 3)])
        edges = list(g.edges())
        assert len(edges) == 2
        assert {frozenset(e) for e in edges} == {frozenset((1, 2)),
                                                 frozenset((2, 3))}

    def test_contains_and_iter(self):
        g = Graph()
        g.add_nodes("abc")
        assert "a" in g
        assert "z" not in g
        assert sorted(g) == ["a", "b", "c"]

    def test_equality_structural(self):
        g1 = Graph()
        g1.add_edge(1, 2, w=1)
        g2 = Graph()
        g2.add_edge(1, 2, w=1)
        assert g1 == g2
        g2.set_edge_attr(1, 2, "w", 2)
        assert g1 != g2

    def test_graphs_unhashable(self):
        with pytest.raises(TypeError):
            hash(Graph())

    @pytest.mark.parametrize("cls", [Graph, DiGraph])
    def test_attribute_scans_read_the_live_dicts(self, cls):
        g = cls()
        g.add_node("a", kind="person")
        g.add_node("b")
        g.add_edge("a", "b", relation="knows")
        g.add_edge("b", "b", weight=2)
        g.add_edge("b", "c")
        assert list(g.node_attr_dicts()) == [
            g.node_attrs(node) for node in g.nodes()]
        first = next(g.node_attr_dicts())
        assert first == {"kind": "person"}
        assert g.edge_attr_keys() == {"relation", "weight"}
        g.set_edge_attr("b", "c", "seen", True)
        assert g.edge_attr_keys() == {"relation", "weight", "seen"}
        g.set_node_attr("a", "seen", True)
        assert first == {"kind": "person", "seen": True}
        assert cls().edge_attr_keys() == set()


class TestGraphDerived:
    def test_copy_is_deep_for_attrs(self):
        g = Graph()
        g.add_edge(1, 2, w=1)
        clone = g.copy()
        clone.set_edge_attr(1, 2, "w", 99)
        assert g.get_edge_attr(1, 2, "w") == 1

    def test_subgraph_induced(self):
        g = Graph()
        g.add_edges([(1, 2), (2, 3), (3, 1), (3, 4)])
        sub = g.subgraph([1, 2, 3])
        assert sub.number_of_nodes() == 3
        assert sub.number_of_edges() == 3

    def test_subgraph_keeps_the_parent_node_order(self):
        g = Graph()
        g.add_edges([("erin", "alice"), ("alice", "bob"), ("bob", "carol"),
                     ("dave", "erin")])
        assert list(g.subgraph({"carol", "erin", "bob", "alice"})
                    .nodes()) == ["erin", "alice", "bob", "carol"]

    def test_derived_node_order_ignores_the_hash_seed(self):
        # string hashes change with PYTHONHASHSEED, so set iteration
        # order does too; subgraphs (and k_core, ego_graph built on
        # them) must not follow it
        script = textwrap.dedent("""
            from repro.algorithms import k_core
            from repro.graphs import Graph, ego_graph
            g = Graph()
            g.add_edges([("alice", "bob"), ("bob", "carol"),
                         ("carol", "alice"), ("carol", "erin"),
                         ("erin", "alice"), ("erin", "bob"),
                         ("dave", "frank")])
            print(list(g.subgraph(["carol", "bob", "erin", "alice"])
                       .nodes()))
            print(list(k_core(g, 3).nodes()))
            print(list(ego_graph(g, "erin").nodes()))
            """)
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": str(src)}
            completed = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, timeout=60, env=env)
            assert completed.returncode == 0, completed.stderr
            outputs.append(completed.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[0] == \
            "['alice', 'bob', 'carol', 'erin']"

    def test_subgraph_missing_node_raises(self):
        g = Graph()
        g.add_node(1)
        with pytest.raises(NodeNotFoundError):
            g.subgraph([1, 99])

    def test_to_directed_doubles_edges(self):
        g = Graph()
        g.add_edge(1, 2)
        d = g.to_directed()
        assert d.has_edge(1, 2) and d.has_edge(2, 1)
        assert d.number_of_edges() == 2


class TestDiGraph:
    def test_directed_edge_one_way(self):
        d = DiGraph()
        d.add_edge("a", "b")
        assert d.has_edge("a", "b")
        assert not d.has_edge("b", "a")

    def test_successors_predecessors(self):
        d = DiGraph()
        d.add_edges([("a", "b"), ("c", "b")])
        assert set(d.successors("a")) == {"b"}
        assert set(d.predecessors("b")) == {"a", "c"}
        assert d.in_degree("b") == 2
        assert d.out_degree("b") == 0
        assert d.degree("b") == 2

    def test_remove_node_cleans_pred(self):
        d = DiGraph()
        d.add_edges([("a", "b"), ("b", "c")])
        d.remove_node("b")
        assert set(d.successors("a")) == set()
        assert set(d.predecessors("c")) == set()

    def test_remove_edge_directed(self):
        d = DiGraph()
        d.add_edge("a", "b")
        with pytest.raises(EdgeNotFoundError):
            d.remove_edge("b", "a")
        d.remove_edge("a", "b")
        assert d.number_of_edges() == 0

    def test_reverse(self):
        d = DiGraph()
        d.add_edge("a", "b", relation="r")
        r = d.reverse()
        assert r.has_edge("b", "a")
        assert r.get_edge_attr("b", "a", "relation") == "r"

    def test_to_undirected(self):
        d = DiGraph()
        d.add_edges([("a", "b"), ("b", "a")])
        g = d.to_undirected()
        assert g.number_of_edges() == 1

    def test_number_of_edges_counts_arcs(self):
        d = DiGraph()
        d.add_edges([("a", "b"), ("b", "a"), ("b", "c")])
        assert d.number_of_edges() == 3

    def test_repr_mentions_counts(self):
        d = DiGraph(name="kg")
        d.add_edge(1, 2)
        assert "kg" in repr(d)
        assert "2 nodes" in repr(d)
