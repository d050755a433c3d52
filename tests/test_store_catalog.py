"""GraphCatalog: epochs, views, durability, and the parity gate.

The central acceptance check of the store: for a seeded 1000-edit
workload with periodic snapshots, ``snapshot + tail replay`` (what a
reopened handle does) is byte-identical to replaying the full edit
history from genesis.
"""

import random

import pytest

from repro.errors import GraphError, StoreError
from repro.graphs.graph import Graph
from repro.obs import MetricsRegistry, Tracer
from repro.store import GraphCatalog, graph_bytes


def seeded_workload(handle, n_edits=1000, seed=0):
    """Apply ``n_edits`` random valid edits through ``handle``."""
    rng = random.Random(seed)
    nodes = []
    edges = []
    applied = 0
    while applied < n_edits:
        roll = rng.random()
        if roll < 0.35 or len(nodes) < 2:
            node = f"n{applied}"
            handle.add_node(node, kind=rng.choice(["a", "b", "c"]),
                            rank=rng.randrange(100))
            nodes.append(node)
        elif roll < 0.70:
            u, v = rng.sample(nodes, 2)
            handle.add_edge(u, v, w=round(rng.random(), 6))
            if (u, v) not in edges and (v, u) not in edges:
                edges.append((u, v))
        elif roll < 0.80 and edges:
            u, v = edges.pop(rng.randrange(len(edges)))
            handle.remove_edge(u, v)
        elif roll < 0.90 and len(nodes) > 2:
            node = nodes.pop(rng.randrange(len(nodes)))
            handle.remove_node(node)
            edges = [(u, v) for u, v in edges
                     if u != node and v != node]
        else:
            handle.set_node_attr(rng.choice(nodes), "rank",
                                 rng.randrange(100))
        applied += 1
    return applied


# ----------------------------------------------------------------------
# the parity gate
# ----------------------------------------------------------------------
def test_snapshot_plus_replay_is_bit_identical_for_1k_edits(tmp_path):
    catalog = GraphCatalog(tmp_path, snapshot_every=128)
    handle = catalog.create("gate")
    seeded_workload(handle, n_edits=1000, seed=7)
    assert handle.epoch > 2  # the workload really rolled epochs
    live = graph_bytes(handle.graph)

    # path 1: full-log replay from genesis (epoch-0 empty snapshot)
    assert graph_bytes(handle.replay_from_genesis()) == live

    # path 2: a cold open = latest snapshot + tail replay
    reopened = GraphCatalog(tmp_path).open("gate")
    assert graph_bytes(reopened.graph) == live
    assert reopened.epoch == handle.epoch
    assert reopened.version == handle.version


def test_recovery_after_torn_tail_keeps_the_prefix(tmp_path):
    catalog = GraphCatalog(tmp_path)
    handle = catalog.create("torn")
    seeded_workload(handle, n_edits=40, seed=1)
    prefix_version = handle.version
    handle.add_node("tail-node", kind="x", rank=0)
    handle.close()

    # simulate a crash mid-append: chop 3 bytes off the live log
    from repro.store import layout
    log_file = layout.log_path(tmp_path, "torn", 0)
    blob = log_file.read_bytes()
    log_file.write_bytes(blob[:-3])

    reopened = GraphCatalog(tmp_path).open("torn")
    assert reopened.recovered_drop_bytes > 0
    assert reopened.version == prefix_version
    assert not reopened.graph.has_node("tail-node")
    # the recovered store keeps working
    reopened.add_node("tail-node", kind="x", rank=0)
    assert reopened.graph.has_node("tail-node")


# ----------------------------------------------------------------------
# catalog operations
# ----------------------------------------------------------------------
def test_create_open_names_exists_drop(tmp_path):
    catalog = GraphCatalog(tmp_path)
    catalog.create("alpha")
    catalog.create("beta", directed=True)
    assert catalog.names() == ["alpha", "beta"]
    assert catalog.exists("alpha") and not catalog.exists("gamma")
    assert catalog.open("beta").directed
    with pytest.raises(StoreError):
        catalog.create("alpha")
    with pytest.raises(StoreError):
        catalog.open("gamma")
    catalog.drop("alpha")
    assert catalog.names() == ["beta"]
    with pytest.raises(StoreError):
        catalog.drop("alpha")


def test_invalid_graph_names_are_rejected(tmp_path):
    catalog = GraphCatalog(tmp_path)
    for bad in ("", ".hidden", "a/b", "a b", "-lead", "x" * 200):
        with pytest.raises(StoreError):
            catalog.create(bad)


def test_ingest_round_trips_an_existing_graph(tmp_path, social_graph):
    catalog = GraphCatalog(tmp_path)
    handle = catalog.create("social")
    count = handle.ingest(social_graph)
    assert count == (social_graph.number_of_nodes()
                     + social_graph.number_of_edges())
    assert handle.graph == social_graph
    # durable: visible through a cold open
    assert GraphCatalog(tmp_path).open("social").graph == social_graph
    with pytest.raises(StoreError):
        handle.ingest(social_graph.to_directed())  # directedness clash


def test_views_are_immutable_epoch_pinned_copies(tmp_path):
    catalog = GraphCatalog(tmp_path)
    handle = catalog.create("v")
    handle.add_node("a", rank=1)
    view = catalog.view("v")
    assert (view.name, view.epoch, view.version) == ("v", 0, 1)
    handle.add_node("b")
    handle.set_node_attr("a", "rank", 99)
    assert not view.graph.has_node("b")
    assert view.graph.node_attrs("a") == {"rank": 1}
    # the view refuses writes; a copy of it is private and editable
    with pytest.raises(GraphError):
        view.graph.add_node("rogue")
    private = view.graph.copy()
    private.add_node("rogue")
    assert not handle.graph.has_node("rogue")
    assert not view.graph.has_node("rogue")


def test_auto_snapshot_rolls_epochs(tmp_path):
    catalog = GraphCatalog(tmp_path, snapshot_every=5)
    handle = catalog.create("roll")
    for i in range(12):
        handle.add_node(f"n{i}")
    assert handle.epoch == 2
    from repro.store import layout
    assert layout.list_epochs(tmp_path, "roll") == [0, 1, 2]


def test_compact_prunes_history_and_notifies(tmp_path):
    catalog = GraphCatalog(tmp_path, snapshot_every=4)
    events = []
    catalog.add_compact_listener(
        lambda name, live: events.append((name, tuple(live))))
    handle = catalog.create("c")
    for i in range(10):
        handle.add_node(f"n{i}")
    old_epoch = handle.epoch
    new_epoch = handle.compact()
    assert new_epoch == old_epoch + 1
    from repro.store import layout
    assert layout.list_epochs(tmp_path, "c") == [new_epoch]
    assert events == [("c", (new_epoch,))]
    # post-compaction state still byte-matches a replay of what remains
    assert graph_bytes(handle.replay_from_genesis()) == \
        graph_bytes(handle.graph)
    catalog.remove_compact_listener(events)  # unknown listener: no-op


def test_edit_validation_keeps_bad_edits_out_of_the_log(tmp_path):
    catalog = GraphCatalog(tmp_path)
    handle = catalog.create("strict")
    handle.add_node("a")
    with pytest.raises(StoreError):
        handle.add_node("b", bad=object())
    with pytest.raises(Exception):
        handle.remove_node("missing")
    # the failed edits left no trace: log replays to the same state
    assert graph_bytes(handle.replay_from_genesis()) == \
        graph_bytes(handle.graph)
    assert handle.version == 1


# ----------------------------------------------------------------------
# node index + obs wiring
# ----------------------------------------------------------------------
def test_node_index_follows_edits_and_compaction(tmp_path):
    catalog = GraphCatalog(tmp_path)
    handle = catalog.create("idx")
    for i in range(8):
        handle.add_node(f"n{i}", rank=i)
    index = handle.node_index()
    assert index.size == 8
    handle.add_node("fresh", rank=99)
    handle.remove_node("n3")
    handle.set_node_attr("n5", "rank", -1)
    stats = index.stats()
    assert stats["nodes"] == 8
    assert stats["incremental_inserts"] == 2  # fresh + n5 reinsert
    assert stats["incremental_deletes"] == 2  # n3 + n5 reinsert
    hits = [node for node, __ in index.search_text("rank 99", k=3)]
    assert "n3" not in hits
    handle.compact()
    assert index.stats()["tombstones"] == 0
    assert index.size == 8
    assert [n for n, __ in index.search_like("fresh", k=2)]


def test_store_counters_and_spans_flow_through_obs(tmp_path):
    metrics = MetricsRegistry()
    tracer = Tracer(seed=0)
    catalog = GraphCatalog(tmp_path, snapshot_every=3,
                           metrics=metrics, tracer=tracer)
    handle = catalog.create("obs")
    for i in range(7):
        handle.add_node(f"n{i}")
    handle.node_index()
    handle.add_node("late")
    handle.compact()
    counters = metrics.snapshot()["counters"]
    assert counters["store_log_appends"] == 8
    assert counters["store_snapshot_writes"] >= 2
    assert counters["store_incremental_inserts"] == 1
    assert counters["store_compactions"] == 1
    kinds = {span.name for span in tracer.finished_spans()
             if span.kind == "store"}
    assert kinds == {"store:apply", "store:snapshot", "store:compact"}


def test_stats_snapshot_shape(tmp_path):
    catalog = GraphCatalog(tmp_path)
    handle = catalog.create("s")
    handle.add_edge("a", "b")
    stats = catalog.stats()["s"]
    assert stats["nodes"] == 2 and stats["edges"] == 1
    assert stats["epoch"] == 0 and stats["version"] == 1
    assert stats["log_records"] == 1 and stats["log_bytes"] > 0


def test_snapshot_every_must_be_non_negative(tmp_path):
    with pytest.raises(StoreError):
        GraphCatalog(tmp_path, snapshot_every=-1)


def test_directed_graphs_survive_the_store(tmp_path):
    catalog = GraphCatalog(tmp_path)
    handle = catalog.create("d", directed=True)
    handle.add_edge("a", "b", w=1)
    handle.add_edge("b", "a", w=2)
    reopened = GraphCatalog(tmp_path).open("d")
    assert reopened.graph.directed
    assert reopened.graph.edge_attrs("a", "b") == {"w": 1}
    assert reopened.graph.edge_attrs("b", "a") == {"w": 2}
