"""The counting sequencer against the pre-interning reference oracle.

``tests/sequencer_oracle.py`` is the tuple-and-set implementation the
sequencer had before it moved onto :class:`repro.graphs.TopologyView`.
The cover is order- and cap-sensitive, so "same token bag" is required
exactly: feature counts, cover stats, the lazy sequences as ordered
tuples, and the whole super-graph.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import find_cliques
from repro.config import SequencerConfig
from repro.graphs import (
    DiGraph,
    Graph,
    ba_graph,
    complete_graph,
    knowledge_graph,
    molecule_like_graph,
    social_network,
)
from repro.sequencer import (
    GraphSequentializer,
    build_supergraph,
    length_constrained_path_cover,
)
from repro.sequencer.motifs import find_rings
from repro.sequencer.path_cover import CoverStats
from repro.serve.cache import LRUCache

from . import sequencer_oracle as oracle

#: Label values that collide under ``==`` (1, True, and the string "1"
#: renders like both) or are not strings at all; None means "try the
#: next label key".
LABELS = ("C", "N", 1, "1", True, 2.5, "", None, ("t", 0))


def random_graph(seed, n_nodes, density, directed, loops, isolated):
    """A seeded graph with mixed node types, labels and insertion order."""
    rng = random.Random(seed)
    nodes = [rng.choice((i, f"n{i}", ("t", i))) for i in range(n_nodes)]
    graph = DiGraph(name="d") if directed else Graph(name="g")
    extra = [("alone", i) for i in range(isolated)]
    order = nodes + extra
    rng.shuffle(order)
    for node in order:
        attrs = {}
        for key in oracle.LABEL_KEYS:
            if rng.random() < 0.3:
                attrs[key] = rng.choice(LABELS)
        graph.add_node(node, **attrs)
    for u in nodes:
        for v in nodes:
            if (u != v or loops) and rng.random() < density:
                graph.add_edge(u, v)
    return graph


def assert_same_supergraph(new, old, where):
    assert new.members == old.members, where
    assert list(new.graph.nodes()) == list(old.graph.nodes()), where
    for sid in old.graph.nodes():
        assert new.graph.node_attrs(sid) == old.graph.node_attrs(sid), where
        # neighbour order decides the coarse cover, so compare it too
        assert (list(new.graph.neighbors(sid))
                == list(old.graph.neighbors(sid))), where
        for node in old.members[sid]:
            assert new.supernode_of(node) == sid, where
    assert list(new.graph.edges()) == list(old.graph.edges()), where
    assert new.graph.name == old.graph.name, where


def assert_same_sequences(new, old, where):
    assert new.feature_counts == old.feature_counts, where
    assert new.cover_stats == old.cover_stats, where
    assert new.n_sequences == old.n_sequences, where
    assert new.sequences == old.sequences, where
    assert new.super_sequences == old.super_sequences, where
    assert (new.supergraph is None) == (old.supergraph is None), where
    if old.supergraph is not None:
        assert_same_supergraph(new.supergraph, old.supergraph, where)


#: (n_nodes, density): dense only while small.  Past 100,000 maximal
#: cliques ``find_cliques`` truncates, and which cliques it has seen by
#: then depends on set iteration order (in the oracle too).
SHAPES = (st.tuples(st.integers(0, 14),
                    st.sampled_from((0.03, 0.1, 0.25, 0.6)))
          | st.tuples(st.integers(15, 70),
                      st.sampled_from((0.03, 0.1, 0.25))))


@given(seed=st.integers(0, 2 ** 32 - 1), shape=SHAPES,
       directed=st.booleans(), loops=st.booleans(),
       isolated=st.integers(0, 3),
       path_length=st.integers(1, 4),
       max_paths=st.sampled_from((None, 1, 3, 10, 50, 4096)),
       multi_level=st.booleans(),
       min_motif_size=st.integers(2, 4))
@settings(max_examples=250, deadline=None, print_blob=True)
def test_counting_sequencer_equals_oracle(
        seed, shape, directed, loops, isolated, path_length, max_paths,
        multi_level, min_motif_size):
    n_nodes, density = shape
    graph = random_graph(seed, n_nodes, density, directed, loops, isolated)
    where = (f"seed={seed} n_nodes={n_nodes} density={density} "
             f"directed={directed} loops={loops} isolated={isolated} "
             f"path_length={path_length} max_paths={max_paths} "
             f"multi_level={multi_level} min_motif_size={min_motif_size}")

    paths, stats = length_constrained_path_cover(
        graph, path_length, max_paths)
    old_paths, old_stats = oracle.length_constrained_path_cover(
        graph, path_length, max_paths)
    assert paths == old_paths, where
    assert stats == old_stats, where

    assert find_rings(graph) == oracle.find_rings(graph), where
    if not directed:
        assert (set(find_cliques(graph))
                == set(oracle.find_cliques(graph))), where
    assert_same_supergraph(
        build_supergraph(graph, min_motif_size),
        oracle.build_supergraph(graph, min_motif_size), where)

    if max_paths is not None:
        config = SequencerConfig(
            path_length=path_length, max_paths=max_paths,
            multi_level=multi_level, min_motif_size=min_motif_size)
        assert_same_sequences(
            GraphSequentializer(config).sequentialize(graph),
            oracle.sequentialize(graph, config), where)


def oriented(graph, seed):
    """``graph`` as a DiGraph: each edge one way at random, some both."""
    rng = random.Random(seed)
    out = DiGraph(name=f"oriented({graph.name})")
    for node in graph.nodes():
        out.add_node(node, **graph.node_attrs(node))
    for u, v in graph.edges():
        if rng.random() < 0.5:
            u, v = v, u
        out.add_edge(u, v)
        if rng.random() < 0.2:
            out.add_edge(v, u)
    return out


#: Graphs of the sizes and kinds a large chat request uploads, past the
#: 70 nodes and 0.25 density the hypothesis differential stops at.
LEDGER_GRAPHS = {
    "social-100": lambda: social_network(100, 4, seed=11),
    "social-160": lambda: social_network(160, 6, p_in=0.3, seed=12),
    "ba-120": lambda: ba_graph(120, 4, seed=13),
    "ba-170": lambda: ba_graph(170, 6, seed=14),
    "kg-150": lambda: knowledge_graph(150, 600, seed=15),
    "kg-240": lambda: knowledge_graph(240, 960, seed=16),
    "molecule": lambda: molecule_like_graph(6, 5, seed=17),
    "oriented-ba": lambda: oriented(ba_graph(140, 5, seed=18), 19),
}


@pytest.mark.parametrize("kind", sorted(LEDGER_GRAPHS))
def test_ledger_sized_graphs_equal_oracle(kind):
    graph = LEDGER_GRAPHS[kind]()
    assert_same_supergraph(build_supergraph(graph),
                           oracle.build_supergraph(graph), kind)
    config = SequencerConfig()
    assert_same_sequences(GraphSequentializer(config).sequentialize(graph),
                          oracle.sequentialize(graph, config), kind)


@pytest.mark.parametrize("directed", (False, True))
def test_sequentialize_builds_no_object_graph(monkeypatch, directed):
    graph = random_graph(3, 40, 0.2, directed, loops=True, isolated=2)
    built = []
    init = Graph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    out = GraphSequentializer(SequencerConfig()).sequentialize(graph)
    assert out.supergraph is not None
    assert built == []
    monkeypatch.undo()
    # the object-graph face is still there, built on first read
    expected = oracle.build_supergraph(graph)
    assert_same_supergraph(out.supergraph, expected, "")
    assert out.supergraph.graph is out.supergraph.graph


def test_labels_intern_by_rendered_token():
    graph = Graph()
    for node, label in enumerate((1, "1", True, 1.0)):
        graph.add_node(node, label=label)
    graph.add_edges([(0, 1), (1, 2), (2, 3)])
    config = SequencerConfig(multi_level=False)
    out = GraphSequentializer(config).sequentialize(graph)
    assert set(out.feature_counts) == {"<n:1>", "<n:True>", "<n:1.0>",
                                       "<e>"}
    assert_same_sequences(out, oracle.sequentialize(graph, config), "")


class TestCapBoundary:
    """``max_paths`` landing at each kind of place the walk can stop."""

    @staticmethod
    def check(graph, path_length, max_paths, expected_paths,
              expected_stats):
        paths, stats = length_constrained_path_cover(
            graph, path_length, max_paths)
        assert paths == expected_paths
        assert stats == expected_stats
        assert (paths, stats) == oracle.length_constrained_path_cover(
            graph, path_length, max_paths)
        config = SequencerConfig(path_length=path_length,
                                 max_paths=max_paths, multi_level=False)
        out = GraphSequentializer(config).sequentialize(graph)
        assert out.cover_stats == expected_stats
        assert out.n_sequences == len(expected_paths)
        bag = Counter()
        for path in expected_paths:
            bag.update(["<n:*>"] * len(path) + ["<e>"] * (len(path) - 1))
        assert out.feature_counts == bag
        assert len(out.sequences) == len(expected_paths)

    def test_cap_mid_tree_phase(self):
        # ball 0 of K4 holds three tree paths, then three non-tree ones
        self.check(
            complete_graph(4), 2, 2, [(0, 1), (0, 2)],
            CoverStats(n_paths=2, max_path_length=1, covered_nodes=3,
                       covered_edges=2, total_nodes=4, total_edges=6))

    def test_cap_mid_non_tree_phase(self):
        self.check(
            complete_graph(4), 2, 5,
            [(0, 1), (0, 2), (0, 3), (0, 1, 2), (0, 1, 3)],
            CoverStats(n_paths=5, max_path_length=2, covered_nodes=4,
                       covered_edges=5, total_nodes=4, total_edges=6))

    def test_cap_on_last_path_of_a_ball(self):
        ball_0 = [(0, 1), (0, 2), (0, 3), (0, 1, 2), (0, 1, 3), (0, 2, 3)]
        self.check(
            complete_graph(4), 2, 6, ball_0,
            CoverStats(n_paths=6, max_path_length=2, covered_nodes=4,
                       covered_edges=6, total_nodes=4, total_edges=6))
        # one more path and the walk is into ball 1
        paths, __ = length_constrained_path_cover(complete_graph(4), 2, 7)
        assert paths == ball_0 + [(1, 0)]

    def test_cap_on_isolated_singleton(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_node("alone")
        graph.add_edge(3, 4)
        self.check(
            graph, 1, 3, [(1, 2), (2, 1), ("alone",)],
            CoverStats(n_paths=3, max_path_length=1, covered_nodes=3,
                       covered_edges=1, total_nodes=5, total_edges=2))
        first = Graph()
        first.add_node("alone")
        first.add_edge(1, 2)
        self.check(
            first, 2, 1, [("alone",)],
            CoverStats(n_paths=1, max_path_length=0, covered_nodes=1,
                       covered_edges=0, total_nodes=3, total_edges=1))


@pytest.mark.parametrize("directed", (False, True))
def test_cached_sequences_survive_graph_edits(directed):
    graph = random_graph(7, 12, 0.25, directed, loops=True, isolated=1)
    config = SequencerConfig()
    expected = oracle.sequentialize(graph, config)  # built eagerly
    sequencer = GraphSequentializer(config, cache=LRUCache(4))
    out = sequencer.sequentialize(graph)
    assert sequencer.sequentialize(graph) is out  # the shared entry

    nodes = list(graph.nodes())
    graph.remove_node(nodes[0])
    graph.add_edge(nodes[1], "new")
    for node in graph.nodes():
        graph.set_node_attr(node, "label", "relabelled")

    # nothing was rendered before the edits: the lazy view must come
    # from the snapshot, not from the live graph
    assert out.sequences == expected.sequences
    assert out.super_sequences == expected.super_sequences
    assert out.flat_tokens().count("<level:0>") == len(expected.sequences)
    assert out.feature_counts == expected.feature_counts
