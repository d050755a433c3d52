"""Tests for the Hungarian algorithm and graph edit distance."""

import networkx as nx
import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from repro.algorithms import (
    approximate_ged,
    exact_ged,
    graph_edit_distance,
    hungarian,
)
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    er_graph,
    path_graph,
)


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(g.nodes())
    G.add_edges_from(g.edges())
    return G


class TestHungarian:
    def test_identity_matrix(self):
        cost = [[0, 1], [1, 0]]
        assignment, total = hungarian(cost)
        assert assignment == [0, 1]
        assert total == 0

    def test_antidiagonal(self):
        cost = [[1, 0], [0, 1]]
        assignment, total = hungarian(cost)
        assert assignment == [1, 0]
        assert total == 0

    def test_empty(self):
        assert hungarian([]) == ([], 0.0)

    def test_rectangular_wide(self):
        cost = [[5.0, 1.0, 9.0]]
        assignment, total = hungarian(cost)
        assert assignment == [1]
        assert total == 1.0

    def test_rectangular_tall_leaves_rows_unassigned(self):
        cost = [[1.0], [0.0], [2.0]]
        assignment, total = hungarian(cost)
        assert assignment.count(-1) == 2
        assert assignment[1] == 0
        assert total == 0.0

    def test_ragged_raises(self):
        with pytest.raises(ValueError):
            hungarian([[1, 2], [3]])

    def test_no_finite_assignment_raises(self):
        # a row with no finite cost used to spin forever
        inf = float("inf")
        with pytest.raises(ValueError, match="no finite assignment"):
            hungarian([[inf, inf], [1.0, 2.0]])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        cost = rng.random((n, m))
        __, total = hungarian(cost.tolist())
        rows, cols = linear_sum_assignment(cost)
        assert total == pytest.approx(cost[rows, cols].sum())


class TestGed:
    def test_identical_zero(self):
        result = graph_edit_distance(path_graph(4), path_graph(4))
        assert result.cost == 0.0
        assert result.exact

    def test_one_edge_difference(self):
        assert graph_edit_distance(path_graph(4), cycle_graph(4)).cost == 1.0

    def test_one_node_difference(self):
        # path_3 -> path_4: one node + one edge
        assert graph_edit_distance(path_graph(3), path_graph(4)).cost == 2.0

    def test_label_substitution_counts(self):
        g1 = Graph()
        g1.add_node(0, label="A")
        g2 = Graph()
        g2.add_node(0, label="B")
        assert graph_edit_distance(g1, g2).cost == 1.0

    def test_symmetry(self):
        a, b = er_graph(5, 0.4, seed=1), er_graph(5, 0.6, seed=2)
        assert graph_edit_distance(a, b).cost == pytest.approx(
            graph_edit_distance(b, a).cost)

    def test_empty_graphs(self):
        assert graph_edit_distance(Graph(), Graph()).cost == 0.0
        g = path_graph(2)
        assert graph_edit_distance(Graph(), g).cost == 3.0  # 2 nodes + edge

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_matches_networkx(self, seed):
        a = er_graph(5, 0.4, seed=seed)
        b = er_graph(5, 0.5, seed=seed + 50)
        ours = graph_edit_distance(a, b).cost
        theirs = nx.graph_edit_distance(to_nx(a), to_nx(b))
        assert ours == pytest.approx(theirs)

    def test_approximate_upper_bounds_exact(self):
        for seed in range(5):
            a = er_graph(6, 0.3, seed=seed)
            b = er_graph(6, 0.5, seed=seed + 10)
            approx = approximate_ged(a, b).cost
            exact = exact_ged(a, b).cost
            assert approx >= exact - 1e-9

    def test_mapping_covers_all_nodes(self):
        a, b = path_graph(4), cycle_graph(4)
        result = graph_edit_distance(a, b)
        assert set(result.mapping) == set(a.nodes())

    def test_large_uses_approximation(self):
        a = er_graph(20, 0.1, seed=1)
        b = er_graph(20, 0.1, seed=2)
        result = graph_edit_distance(a, b, exact_threshold=8)
        assert not result.exact
        assert result.cost >= 0
