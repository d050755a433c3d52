"""Topology-only results memoised on a graph's :class:`TopologyView`.

Label propagation (and the modularity of its partition), PageRank and
the triangle counts behind the clustering family are computed once per
view, and ``summarize`` reads its degree figures off the view.  What a
caller sees must not depend on that: after any interleaving of topology
edits, attribute writes and calls, every answer equals the one a fresh
``graph.copy()`` gives — floats by ``==``, sets in the same iteration
order — and no container handed out is the memo itself.
"""

import random
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import algorithms
from repro.algorithms.community import _label_propagation_modularity
from repro.graphs import (
    DiGraph,
    Graph,
    GraphSummary,
    TopologyView,
    density,
    social_network,
    summarize,
)
from repro.llm import GraphTypePredictor

from .test_graphs_topology import ATTRIBUTE_OPS, TOPOLOGY_OPS, apply_op

POOL = [0, 1, 2, 3, 4, "a", "b", "c", ("t", 0), ("t", 1), 7.5]


def answers(graph, seed=0, damping=0.85):
    """Everything the memo serves, as plain comparable values."""
    out = {
        "pagerank": list(algorithms.pagerank(graph, damping=damping)
                         .items()),
        "max_degree": TopologyView.of(graph).max_degree,
        "type": GraphTypePredictor().predict(graph),
    }
    if graph.directed:
        return out
    out.update({
        "label_propagation": [list(group) for group in
                              algorithms.label_propagation(graph,
                                                           seed=seed)],
        "lp_modularity": _label_propagation_modularity(graph, seed=seed),
        "triangles": list(algorithms.triangles(graph).items()),
        "clustering": list(algorithms.clustering_coefficient(graph)
                           .items()),
        "average_clustering": algorithms.average_clustering(graph),
        "transitivity": algorithms.transitivity(graph),
    })
    return out


def max_degree(graph):
    return max((graph.degree(node) for node in graph.nodes()), default=0)


def reference_summary(graph):
    """``summarize`` as it read each node's degree and attributes."""
    degrees = [graph.degree(node) for node in graph.nodes()]
    node_keys, edge_keys = set(), set()
    for node in graph.nodes():
        node_keys.update(graph.node_attrs(node))
    for u, v in graph.edges():
        edge_keys.update(graph.edge_attrs(u, v))
    return GraphSummary(
        n_nodes=graph.number_of_nodes(), n_edges=graph.number_of_edges(),
        directed=graph.directed, density=density(graph),
        max_degree=max(degrees, default=0),
        mean_degree=(sum(degrees) / len(degrees)) if degrees else 0.0,
        n_isolated=sum(1 for d in degrees if d == 0),
        node_labels=tuple(sorted(node_keys)),
        edge_labels=tuple(sorted(edge_keys)))


def seeded_graph(seed, directed, n_nodes=14, share=0.25):
    rng = random.Random(seed)
    graph = DiGraph() if directed else Graph()
    graph.add_nodes(rng.sample(POOL, len(POOL)))
    nodes = list(graph.nodes())
    for u in nodes[:n_nodes]:
        for v in nodes[:n_nodes]:
            if rng.random() < share:
                graph.add_edge(u, v)
    return graph


@given(seed=st.integers(0, 2 ** 32 - 1), directed=st.booleans(),
       ops=st.lists(st.sampled_from(TOPOLOGY_OPS + ATTRIBUTE_OPS
                                    + ("ask",) * 4),
                    min_size=1, max_size=40))
@settings(max_examples=150, deadline=None, print_blob=True)
def test_interleaved_edits_answer_as_a_fresh_copy(seed, directed, ops):
    rng = random.Random(seed)
    graph = seeded_graph(seed, directed)
    for step, op in enumerate(ops):
        if op != "ask":
            apply_op(graph, op, rng, POOL)
            continue
        lp_seed = rng.randrange(3)
        damping = rng.choice((0.5, 0.85))
        got = answers(graph, lp_seed, damping)
        assert got == answers(graph.copy(), lp_seed, damping), (step, op)
        assert got["max_degree"] == max_degree(graph)
        if not directed:
            # the memoised score is the float modularity() gives
            assert got["lp_modularity"] == algorithms.modularity(
                graph, algorithms.label_propagation(graph, seed=lp_seed))
        assert summarize(graph) == reference_summary(graph), (step, op)
        # asked twice, the memo answers: still the same
        assert answers(graph, lp_seed, damping) == got, (step, op)


def test_mutating_a_returned_container_does_not_leak():
    graph = social_network(40, seed=3)
    expected = answers(graph.copy())
    ranks = algorithms.pagerank(graph)
    ranks.clear()
    for group in algorithms.label_propagation(graph):
        group.add("intruder")
    algorithms.triangles(graph)[next(iter(graph.nodes()))] = -1
    algorithms.clustering_coefficient(graph).clear()
    assert answers(graph) == expected


def test_varying_parameters_keeps_one_slot_per_algorithm():
    graph = social_network(30, seed=1)
    view = TopologyView.of(graph)
    for seed in range(6):
        algorithms.label_propagation(graph, seed=seed)
        _label_propagation_modularity(graph, seed=seed)
    for damping in (0.5, 0.6, 0.7, 0.85):
        algorithms.pagerank(graph, damping=damping)
    for max_iter in (1, 2, 3):
        algorithms.pagerank(graph, max_iter=max_iter)
    algorithms.transitivity(graph)
    assert sorted(view._results) == [
        "label_propagation", "pagerank", "triangles"]
    # each slot holds the last call's parameters
    assert [value for __, value in view._results["pagerank"][0]] == [
        0.85, 3, 1e-9]
    assert [value for __, value in
            view._results["label_propagation"][0]] == [100, 5]


def test_a_parameter_matches_by_type_too():
    # random.Random(-1) and random.Random(-1.0) draw different streams
    graph = social_network(30, seed=5)
    by_int = algorithms.label_propagation(graph, seed=-1)
    by_float = algorithms.label_propagation(graph, seed=-1.0)
    fresh = graph.copy()
    assert by_float == algorithms.label_propagation(fresh, seed=-1.0)
    assert by_int == algorithms.label_propagation(graph.copy(), seed=-1)


def test_equal_graphs_never_share_results():
    one, other = social_network(30, seed=2), social_network(30, seed=2)
    assert one == other
    algorithms.pagerank(one)
    algorithms.label_propagation(one)
    assert TopologyView.of(other)._results == {}
    assert TopologyView.of(one.copy())._results == {}


def test_an_edit_starts_from_empty_slots():
    graph = social_network(30, seed=4)
    algorithms.pagerank(graph)
    old = TopologyView.of(graph)
    graph.add_edge("new", next(iter(graph.nodes())))
    assert TopologyView.of(graph)._results == {}
    assert algorithms.pagerank(graph) == algorithms.pagerank(graph.copy())
    assert list(old._results) == ["pagerank"]


def test_threads_on_one_view_agree():
    # more threads than cores, switching often: two that miss one slot
    # together both compute, and one store wins
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(3):
            graph = social_network(60, seed=seed)
            expected = answers(graph.copy())
            TopologyView.of(graph)  # every thread reads one view
            barrier = threading.Barrier(4)
            got = [None] * 4

            def ask(slot):
                barrier.wait(timeout=30)
                got[slot] = answers(graph)

            threads = [threading.Thread(target=ask, args=(slot,))
                       for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert got == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


def test_max_degree_counts_a_self_loop_twice():
    for directed in (False, True):
        graph = DiGraph() if directed else Graph()
        assert TopologyView.of(graph).max_degree == 0
        graph.add_edge("a", "a")
        graph.add_edge("a", "b")
        assert TopologyView.of(graph).max_degree == max_degree(graph) == 3
