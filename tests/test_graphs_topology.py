"""The topology stamp on ``Graph`` and the view memoised under it."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import DiGraph, Graph, TopologyView


def reference_view(graph):
    """What ``TopologyView.of`` must report, read off the public API."""
    nodes = tuple(graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    step = graph.successors if graph.directed else graph.neighbors
    adj = tuple(tuple(index[v] for v in step(u)) for u in nodes)
    return {
        "nodes": nodes, "adj": adj, "directed": graph.directed,
        "isolated": frozenset(index[u] for u in nodes
                              if graph.degree(u) == 0),
        "n_edges": graph.number_of_edges(),
        "indptr": np.cumsum([0] + [len(row) for row in adj]).tolist(),
        "indices": [v for row in adj for v in row],
    }


def assert_view_is_current(graph, where):
    view = TopologyView.of(graph)
    expected = reference_view(graph)
    for name, value in expected.items():
        got = getattr(view, name)
        if isinstance(got, np.ndarray):
            assert got.dtype == np.intp, (name, where)
            got = got.tolist()
        assert got == value, (name, where)
    assert TopologyView.of(graph) is view, where


#: The seven mutators that change topology (``DiGraph`` overrides three
#: of them), then the writes that must not count as a change.
TOPOLOGY_OPS = ("add_node", "add_edge", "remove_node", "remove_edge")
ATTRIBUTE_OPS = ("set_node_attr", "set_edge_attr", "readd_node",
                 "readd_edge", "node_attrs_dict", "edge_attrs_dict")


def apply_op(graph, op, rng, pool):
    """Apply ``op`` if the graph allows it; returns whether topology
    was expected to change."""
    nodes = list(graph.nodes())
    edges = list(graph.edges())
    if op == "add_node":
        node = rng.choice(pool)
        new = node not in graph
        graph.add_node(node, seen=rng.random())
        return new
    if op == "add_edge":
        u, v = rng.choice(pool), rng.choice(pool)
        new = not graph.has_edge(u, v)
        graph.add_edge(u, v, weight=rng.random())
        return new
    if op == "remove_node" and nodes:
        graph.remove_node(rng.choice(nodes))
        return True
    if op == "remove_edge" and edges:
        graph.remove_edge(*rng.choice(edges))
        return True
    if op == "set_node_attr" and nodes:
        graph.set_node_attr(rng.choice(nodes), "label", rng.random())
    elif op == "set_edge_attr" and edges:
        graph.set_edge_attr(*rng.choice(edges), "relation", rng.random())
    elif op == "readd_node" and nodes:
        graph.add_node(rng.choice(nodes), label="again")
    elif op == "readd_edge" and edges:
        graph.add_edge(*rng.choice(edges), relation="again")
    elif op == "node_attrs_dict" and nodes:
        graph.node_attrs(rng.choice(nodes))["live"] = rng.random()
    elif op == "edge_attrs_dict" and edges:
        graph.edge_attrs(*rng.choice(edges)).clear()
    return False


@given(seed=st.integers(0, 2 ** 32 - 1), directed=st.booleans(),
       ops=st.lists(st.sampled_from(TOPOLOGY_OPS + ATTRIBUTE_OPS),
                    min_size=1, max_size=60))
@settings(max_examples=200, deadline=None, print_blob=True)
def test_memoised_view_tracks_every_mutator(seed, directed, ops):
    rng = random.Random(seed)
    pool = [0, 1, 2, "a", "b", ("t", 0), ("t", 1), 7.5]
    graph = DiGraph() if directed else Graph()
    assert_view_is_current(graph, "empty")
    for step, op in enumerate(ops):
        where = f"seed={seed} directed={directed} step={step} op={op}"
        stamp = graph.topology_stamp
        view = TopologyView.of(graph)
        changed = apply_op(graph, op, rng, pool)
        if changed:
            assert graph.topology_stamp > stamp, where
            assert TopologyView.of(graph) is not view, where
        else:
            assert graph.topology_stamp == stamp, where
            assert TopologyView.of(graph) is view, where
        assert_view_is_current(graph, where)


def sample(directed):
    graph = DiGraph(name="s") if directed else Graph(name="s")
    graph.add_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 3)])
    graph.add_node("alone", label="x")
    return graph


def test_derived_graphs_never_share_a_memo():
    for directed in (False, True):
        source = sample(directed)
        view = TopologyView.of(source)
        derived = [source.copy(), source.subgraph([0, 1, 2, 3]),
                   source.to_undirected() if directed
                   else source.to_directed()]
        if directed:
            derived.append(source.reverse())
        for other in derived:
            assert TopologyView.of(other) is not view
            assert_view_is_current(other, repr(other))
            other.remove_node(3)
            other.add_edge(0, "fresh")
            assert_view_is_current(other, repr(other))
        # none of that touched the source
        assert TopologyView.of(source) is view
        assert_view_is_current(source, repr(source))


def test_a_view_is_a_snapshot():
    graph = sample(False)
    before = TopologyView.of(graph)
    rows = before.adj
    graph.remove_edge(0, 1)
    after = TopologyView.of(graph)
    assert before.adj is rows and after.adj != rows
    assert after.n_edges == before.n_edges - 1


def test_equal_graphs_with_different_histories_stamp_independently():
    # the stamp identifies a state of one object, not a content
    one, other = sample(False), sample(False)
    other.add_node("tmp")
    other.remove_node("tmp")
    assert one == other
    assert one.topology_stamp != other.topology_stamp
    assert TopologyView.of(one) == TopologyView.of(other)
