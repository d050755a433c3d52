"""Tests for degree and attribute assortativity."""

import pytest

from repro.algorithms import (
    attribute_assortativity,
    degree_assortativity,
)
from repro.errors import GraphError
from repro.graphs import (
    Graph,
    complete_graph,
    social_network,
    star_graph,
)


class TestAssortativity:
    def test_star_disassortative(self):
        assert degree_assortativity(star_graph(6)) < -0.9

    def test_regular_graph_neutral(self):
        # all degrees equal -> zero variance -> 0.0 by convention
        assert degree_assortativity(complete_graph(5)) == 0.0

    def test_tiny_graph_zero(self):
        g = Graph()
        g.add_edge(1, 2)
        assert degree_assortativity(g) == 0.0

    def test_matches_networkx(self):
        import networkx as nx
        from repro.graphs import er_graph
        for seed in range(4):
            g = er_graph(30, 0.12, seed=seed)
            G = nx.Graph()
            G.add_nodes_from(g.nodes())
            G.add_edges_from(g.edges())
            theirs = nx.degree_assortativity_coefficient(G)
            assert degree_assortativity(g) == pytest.approx(theirs,
                                                            abs=1e-6)

    def test_attribute_homophily(self):
        g = social_network(40, 2, p_in=0.5, p_out=0.01, seed=1)
        r = attribute_assortativity(g, "community")
        assert r > 0.7

    def test_attribute_missing_raises(self):
        with pytest.raises(GraphError):
            attribute_assortativity(complete_graph(3), "nope")

    def test_perfectly_mixed_attribute(self):
        g = Graph()
        g.add_node(1, team="a")
        g.add_node(2, team="a")
        g.add_edge(1, 2)
        assert attribute_assortativity(g, "team") == 1.0
