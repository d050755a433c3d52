"""The array-view algorithms against the object-graph bodies they replaced.

``tests/algorithms_oracle.py`` holds the dict-of-dict implementations
``repro.algorithms`` had before PageRank, the clustering family and
label propagation moved onto :class:`repro.graphs.TopologyView`.
Scores from these are rounded and printed in replies and break ties in
rankings, so "close" is not the contract: every comparison here is
``==`` on floats, on key order and on random draws.  The PageRank case
is also the guard on ``np.bincount`` adding its weights left to right
on whatever numpy is installed.  (Coarsening's clique filter is pinned
the same way by ``tests/test_sequencer_oracle.py``.)
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import algorithms
from repro.errors import GraphError
from repro.graphs import DiGraph, Graph, social_network

from . import algorithms_oracle as oracle


def random_graph(seed, n_nodes, density, directed, loops, isolated):
    """A seeded graph with mixed node ids in shuffled insertion order.

    Directed ones get dangling nodes (no out-arc) whenever ``density``
    leaves a row empty; ``isolated`` extra nodes have no edge at all.
    """
    rng = random.Random(seed)
    nodes = [rng.choice((i, f"n{i}", ("t", i))) for i in range(n_nodes)]
    order = nodes + [("alone", i) for i in range(isolated)]
    rng.shuffle(order)
    graph = DiGraph(name="d") if directed else Graph(name="g")
    graph.add_nodes(order)
    for u in nodes:
        for v in nodes:
            if (u != v or loops) and rng.random() < density:
                graph.add_edge(u, v)
    return graph


SHAPES = st.tuples(st.integers(0, 40),
                   st.sampled_from((0.0, 0.03, 0.1, 0.3, 0.7)))


@given(seed=st.integers(0, 2 ** 32 - 1), shape=SHAPES,
       loops=st.booleans(), isolated=st.integers(0, 3),
       removed=st.integers(0, 5))
@settings(max_examples=300, deadline=None, print_blob=True)
def test_graph_edges_keep_their_sequence(seed, shape, loops, isolated,
                                         removed):
    graph = random_graph(seed, *shape, False, loops, isolated)
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    for node in rng.sample(nodes, min(removed, len(nodes))):
        graph.remove_node(node)
    edges = oracle.graph_edges(graph)
    for u, v in rng.sample(edges, min(removed, len(edges))):
        graph.remove_edge(u, v)
    assert list(graph.edges()) == oracle.graph_edges(graph)


@given(seed=st.integers(0, 2 ** 32 - 1), shape=SHAPES,
       directed=st.booleans(), loops=st.booleans(),
       isolated=st.integers(0, 3),
       damping=st.sampled_from((0.5, 0.85, 0.99)))
@settings(max_examples=300, deadline=None, print_blob=True)
def test_pagerank_is_bit_exact(seed, shape, directed, loops, isolated,
                               damping):
    graph = random_graph(seed, *shape, directed, loops, isolated)
    new = algorithms.pagerank(graph, damping=damping)
    old = oracle.pagerank(graph, damping=damping)
    assert new == old
    assert list(new) == list(old)
    assert all(type(score) is float for score in new.values())


@pytest.mark.parametrize("max_iter,tol", [(1, 1e-9), (3, 1e-9),
                                          (100, 1e-3), (100, 0.0)])
def test_pagerank_stops_where_the_loop_stopped(max_iter, tol):
    graph = social_network(60, seed=4)
    assert (algorithms.pagerank(graph, max_iter=max_iter, tol=tol)
            == oracle.pagerank(graph, max_iter=max_iter, tol=tol))


def test_pagerank_edge_cases():
    assert algorithms.pagerank(Graph()) == {}
    with pytest.raises(GraphError):
        algorithms.pagerank(Graph(), damping=1.0)
    lone = DiGraph()
    lone.add_edge("a", "a")
    lone.add_node("b")
    assert algorithms.pagerank(lone) == oracle.pagerank(lone)


def test_pagerank_follows_an_edit():
    graph = social_network(30, seed=2)
    algorithms.pagerank(graph)
    node = next(iter(graph.nodes()))
    graph.remove_node(node)
    graph.add_edge("new", next(iter(graph.nodes())))
    assert algorithms.pagerank(graph) == oracle.pagerank(graph)


@given(seed=st.integers(0, 2 ** 32 - 1), shape=SHAPES,
       loops=st.booleans(), isolated=st.integers(0, 3))
@settings(max_examples=200, deadline=None, print_blob=True)
def test_clustering_family_equals_oracle(seed, shape, loops, isolated):
    graph = random_graph(seed, *shape, False, loops, isolated)
    for name in ("triangles", "clustering_coefficient"):
        new = getattr(algorithms, name)(graph)
        old = getattr(oracle, name)(graph)
        assert new == old, name
        assert list(new) == list(old), name
    assert (algorithms.average_clustering(graph)
            == oracle.average_clustering(graph))
    assert algorithms.transitivity(graph) == oracle.transitivity(graph)


@pytest.mark.parametrize("name", ["triangles", "clustering_coefficient",
                                  "average_clustering", "transitivity",
                                  "label_propagation"])
def test_directed_graphs_are_still_refused(name):
    digraph = DiGraph()
    digraph.add_edge(0, 1)
    with pytest.raises(GraphError):
        getattr(algorithms, name)(digraph)


@given(seed=st.integers(0, 2 ** 32 - 1), shape=SHAPES,
       loops=st.booleans(), isolated=st.integers(0, 3),
       rng_seed=st.integers(0, 5),
       max_iter=st.sampled_from((1, 2, 100)))
@settings(max_examples=200, deadline=None, print_blob=True)
def test_label_propagation_makes_the_same_draws(
        seed, shape, loops, isolated, rng_seed, max_iter):
    graph = random_graph(seed, *shape, False, loops, isolated)
    new = algorithms.label_propagation(graph, max_iter, rng_seed)
    old = oracle.label_propagation(graph, max_iter, rng_seed)
    assert new == old
    # callers sort members by repr, but a set's own order is visible too
    assert [list(group) for group in new] == [list(group) for group in old]
