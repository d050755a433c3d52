"""A cached ``sequentialize`` is exactly the uncached one.

The sequence cache is keyed on what the sequencer reads of a graph —
its topology view in insertion order, each node's repr, the label
tokens and the name — so whatever reached the cache first, a lookup
returns what sequencing *this* graph object would return.  These tests
pin that against the uncached sequencer on the same object, pin when a
lookup must hit or miss, and pin that the key's content part is built
once per graph content.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SequencerConfig
from repro.graphs import Graph, knowledge_graph
from repro.graphs.io import from_dict, to_dict
from repro.sequencer import GraphSequentializer, serializer
from repro.sequencer.serializer import node_token
from repro.serve.cache import LRUCache
from repro.store import GraphCatalog

from .test_sequencer_oracle import assert_same_sequences, random_graph


def shuffled_copy(graph, seed):
    """An equal graph rebuilt with nodes and edges in another order."""
    document = to_dict(graph)
    rng = random.Random(seed)
    rng.shuffle(document["nodes"])
    rng.shuffle(document["edges"])
    return from_dict(document)


def lookups(cache):
    stats = cache.stats()
    return stats.misses, stats.hits


def test_reordered_copy_is_served_its_own_token_bag():
    # a directed graph and its reordered copy are equal in content, but
    # the cover walk follows insertion order, so their bags differ
    differing = 0
    for seed in range(12):
        graph = knowledge_graph(40, 120, seed=seed)
        copy = shuffled_copy(graph, seed)
        assert copy == graph
        sequencer = GraphSequentializer(cache=LRUCache(8))
        sequencer.sequentialize(graph)
        served = sequencer.sequentialize(copy)
        alone = GraphSequentializer().sequentialize(copy)
        where = f"seed={seed}"
        assert served.feature_counts == alone.feature_counts, where
        assert served.n_sequences == alone.n_sequences, where
        assert served.sequences == alone.sequences, where
        differing += (alone.feature_counts
                      != GraphSequentializer().sequentialize(graph)
                      .feature_counts)
    assert differing > 0  # the walk really does depend on the order


def test_equal_node_ids_of_other_types_do_not_share_an_entry():
    # 1 == True and they hash alike, so the two topology views compare
    # equal; but the motif search breaks ties by repr, and here that
    # contracts a different triangle
    def build(one):
        graph = Graph(name="g")
        graph.add_edges([(0, one), (one, 5), (5, 0), (0, 3), (3, 4),
                         (4, 0), (one, 9)])
        return graph

    sequencer = GraphSequentializer(cache=LRUCache(8))
    sequencer.sequentialize(build(1))
    served = sequencer.sequentialize(build(True))
    assert lookups(sequencer.cache) == (2, 0)
    assert_same_sequences(
        served, GraphSequentializer().sequentialize(build(True)), "True")


#: The four edits the differential applies to a warm cache, and whether
#: the next lookup must hit.
EDITS = ("reordered_copy", "non_label_write", "label_write",
         "edge_change", "rename")


def apply_edit(graph, edit, rng):
    """Edit ``graph`` (or return an edited copy); returns the graph to
    sequence next and whether the cache must hit on it."""
    nodes = list(graph.nodes())
    if edit == "reordered_copy":
        document = to_dict(graph)
        document["nodes"].reverse()
        document["edges"].reverse()
        return from_dict(document), False
    if edit == "non_label_write":
        for node in nodes:
            graph.set_node_attr(node, "weight", rng.random())
        for u, v in list(graph.edges()):
            graph.set_edge_attr(u, v, "label", rng.random())
        return graph, True
    if edit == "label_write":  # a fresh value: the token must change
        graph.set_node_attr(rng.choice(nodes), "label", f"L{rng.random()}")
        return graph, False
    if edit == "rename":  # the super-graph carries the name
        graph.name += "'"
        return graph, False
    edges = list(graph.edges())
    if edges and rng.random() < 0.5:
        graph.remove_edge(*rng.choice(edges))
    else:
        graph.add_edge(rng.choice(nodes), ("fresh", len(nodes)))
    return graph, False


@given(seed=st.integers(0, 2 ** 32 - 1),
       n_nodes=st.integers(2, 30),
       density=st.sampled_from((0.05, 0.15, 0.4)),
       directed=st.booleans(), loops=st.booleans(),
       isolated=st.integers(0, 2),
       multi_level=st.booleans(),
       edits=st.lists(st.sampled_from(EDITS), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None, print_blob=True)
def test_cached_sequences_equal_uncached_after_any_edit(
        seed, n_nodes, density, directed, loops, isolated, multi_level,
        edits):
    rng = random.Random(seed)
    graph = random_graph(seed, n_nodes, density, directed, loops,
                         isolated)
    config = SequencerConfig(multi_level=multi_level)
    sequencer = GraphSequentializer(config, cache=LRUCache(64))
    sequencer.sequentialize(graph)
    orders = {tuple(graph.nodes())}
    for step, edit in enumerate(edits):
        where = f"seed={seed} step={step} edit={edit}"
        before = lookups(sequencer.cache)
        graph, must_hit = apply_edit(graph, edit, rng)
        served = sequencer.sequentialize(graph)
        misses, hits = lookups(sequencer.cache)
        order = tuple(graph.nodes())
        # reversing twice can rebuild a graph sequenced before, which
        # may hit; a node order never seen must miss
        if edit != "reordered_copy" or order not in orders:
            assert (misses - before[0], hits - before[1]) == (
                (0, 1) if must_hit else (1, 0)), where
        orders.add(order)
        assert_same_sequences(
            served, GraphSequentializer(config).sequentialize(graph),
            where)


def counting_node_token(monkeypatch):
    """Spy on the label renderer; returns the list of its calls."""
    calls = []

    def spy(graph, node):
        calls.append(node)
        return node_token(graph, node)

    monkeypatch.setattr(serializer, "node_token", spy)
    return calls


def test_a_second_lookup_renders_no_token(monkeypatch):
    graph = knowledge_graph(30, 90, seed=1)
    sequencer = GraphSequentializer(cache=LRUCache(8))
    calls = counting_node_token(monkeypatch)
    first = sequencer.sequentialize(graph)
    assert len(calls) == graph.number_of_nodes()
    calls.clear()
    assert sequencer.sequentialize(graph) is first
    assert calls == [] and lookups(sequencer.cache) == (1, 1)


def test_a_label_write_and_a_topology_edit_both_miss():
    graph = knowledge_graph(30, 90, seed=2)
    sequencer = GraphSequentializer(cache=LRUCache(8))
    sequencer.sequentialize(graph)
    node = next(iter(graph.nodes()))
    graph.set_node_attr(node, "label", "fresh-label")
    assert sequencer.sequentialize(graph).feature_counts["<n:fresh-label>"]
    assert lookups(sequencer.cache) == (2, 0)
    graph.add_edge(node, ("new", 0))
    served = sequencer.sequentialize(graph)
    assert lookups(sequencer.cache) == (3, 0)
    assert_same_sequences(served, GraphSequentializer().sequentialize(graph),
                          "edge")


def test_a_renamed_graph_is_served_its_new_name():
    graph = knowledge_graph(30, 90, seed=3)
    sequencer = GraphSequentializer(cache=LRUCache(8))
    assert sequencer.sequentialize(graph).supergraph.name == graph.name
    graph.name = "renamed"
    assert sequencer.sequentialize(graph).supergraph.name == "renamed"
    assert lookups(sequencer.cache) == (2, 0)


def test_two_configs_on_one_graph_make_two_entries():
    graph = knowledge_graph(30, 90, seed=4)
    cache = LRUCache(8)
    configs = (SequencerConfig(), SequencerConfig(path_length=3))
    served = [GraphSequentializer(config, cache).sequentialize(graph)
              for config in configs]
    assert lookups(cache) == (2, 0) and cache.stats().size == 2
    for config, out in zip(configs, served):
        assert_same_sequences(
            out, GraphSequentializer(config).sequentialize(graph),
            repr(config))
        assert GraphSequentializer(config, cache).sequentialize(graph) \
            is out
    assert lookups(cache) == (2, 2)


def test_a_fresh_snapshot_of_equal_content_hits(tmp_path):
    with GraphCatalog(tmp_path / "store") as catalog:
        handle = catalog.create("kg", directed=True)
        handle.ingest(knowledge_graph(40, 120, seed=5))
        sequencer = GraphSequentializer(cache=LRUCache(8))
        first = catalog.view("kg").graph
        out = sequencer.sequentialize(first)
        handle.snapshot()  # an epoch roll: a new frozen object, same content
        second = catalog.view("kg").graph
        assert second is not first and second == first
        for _ in range(2):
            assert sequencer.sequentialize(second) is out
        assert lookups(sequencer.cache) == (1, 2)
