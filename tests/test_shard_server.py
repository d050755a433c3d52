"""End-to-end sharded serving: parity, routing, stats, observability.

One module-scoped 2-shard fleet (real worker processes) serves every
test; a small corpus keeps the boot cheap.  The parity tests are the
acceptance core: a sharded response must flatten to the same canonical
bytes as the single-process server's for the same content-seeded
request.
"""

from __future__ import annotations

import pytest

from repro import ChatGraph, ChatGraphServer, ServeConfig, ServeRequest
from repro.errors import ServeError
from repro.graphs.io import from_dict, to_dict
from repro.shard import ShardModelSpec, ShardedChatGraphServer
from repro.shard.protocol import dumps_canonical, value_to_wire
from repro.testing.workloads import PROMPTS, bench_graphs, canonical_graph

CORPUS = 150


@pytest.fixture(scope="module")
def fleet():
    server = ShardedChatGraphServer(
        ShardModelSpec(corpus_size=CORPUS, seed=0),
        ServeConfig(shards=2, workers=1, queue_depth=64))
    with server:
        yield server


@pytest.fixture(scope="module")
def single():
    chatgraph = ChatGraph.pretrained(corpus_size=CORPUS, seed=0)
    server = ChatGraphServer(chatgraph,
                             ServeConfig(workers=1, queue_depth=64))
    with server:
        yield server


def test_fleet_boots_and_serves(fleet):
    graph = bench_graphs(1)[0]
    response = fleet.ask("how many nodes are there", graph=graph)
    assert response.ok
    assert response.worker.startswith("shard-")
    assert "count_nodes" in response.value.answer


def test_parity_with_single_process(fleet, single):
    graphs = bench_graphs(2)
    for op in ("ask", "propose"):
        for text in PROMPTS[:3]:
            for graph in graphs:
                local = single.request(
                    ServeRequest(op=op, text=text, graph=graph))
                remote = fleet.request(
                    ServeRequest(op=op, text=text, graph=graph))
                assert local.ok and remote.ok
                assert dumps_canonical(
                    value_to_wire(op, local.value)) == dumps_canonical(
                    value_to_wire(op, remote.value)), (op, text)


def test_parity_independent_of_attribute_insertion_order(fleet, single):
    """The pipe's key-sorted JSON hands the shard a graph whose
    attributes sit in sorted key order; an ``export_graph`` answer must
    read the same as one rendered from the caller's insertion order."""
    document = to_dict(canonical_graph("kg"))
    for rows in (document["nodes"], document["edges"]):
        rows[:] = [dict(sorted(row.items(), reverse=True))
                   for row in rows]
    graph = from_dict(document)
    node = next(iter(graph.nodes()))
    assert list(graph.node_attrs(node)) != sorted(graph.node_attrs(node))
    # run_graph_cleaning's prompt: on this model its chain ends in
    # export_graph, the one API whose answer prints attributes
    local = single.ask("Clean G", graph=graph)
    remote = fleet.ask("Clean G", graph=graph)
    assert local.ok and remote.ok
    assert "export_graph: " in local.value.answer
    assert dumps_canonical(value_to_wire("ask", local.value)) \
        == dumps_canonical(value_to_wire("ask", remote.value))


def test_sessions_stick_to_one_shard(fleet):
    graph = bench_graphs(1)[0]
    shards = set()
    for _ in range(3):
        response = fleet.ask("how many nodes are there", graph=graph,
                             session_id="sticky-session")
        assert response.ok
        shards.add(response.worker.split("/")[0])
    assert len(shards) == 1


def test_repeated_queries_reuse_one_shard(fleet):
    graph = bench_graphs(1)[0]
    workers = {fleet.ask("which node is most central",
                         graph=graph).worker.split("/")[0]
               for _ in range(3)}
    assert len(workers) == 1  # q:<graph>|<text> is a stable ring key


def test_execute_is_rejected(fleet):
    proposal = object()  # a live PipelineResult stand-in
    with pytest.raises(ServeError, match="not shardable"):
        fleet.submit(ServeRequest(op="execute", session_id="s-1",
                                  pipeline_result=proposal))


def test_stats_shards_section(fleet):
    stats = fleet.stats()
    shards = stats["shards"]
    assert shards["count"] == 2 and shards["alive"] == 2
    for entry in shards["per_shard"].values():
        assert entry["alive"] is True
        assert entry["pid"] > 0
        assert entry["breaker"]["state"] == "closed"
        assert "counters" in entry  # shard-local detail is nested...
    # ...and coordinator counters stay authoritative (no double count)
    ops = sum(value for name, value in stats["counters"].items()
              if name.startswith("op_"))
    assert stats["counters"]["admitted"] == ops
    assert stats["queue"]["depth"] == 64
    assert "epochs" in stats["store"]


def test_stats_poll_is_one_more_rpc(fleet):
    """The stats poll rides the same ``rpc_id`` channel as the migration
    RPCs: one reply per live shard, a dead shard skipped, no waiter
    left behind."""
    backend = fleet.backend
    replies = backend._poll_shards()
    assert sorted(replies) == [0, 1]
    for index, reply in replies.items():
        assert reply["type"] == "stats_reply" and reply["shard"] == index
        assert reply["rpc_id"] > 0
        assert "counters" in reply["stats"] and "metrics" in reply
        assert backend.handles[index].last_stats is reply
    # a shard the coordinator holds dead is not written to at all
    victim = backend.handles[0]
    with victim.lock:
        victim.alive = False
    try:
        assert sorted(backend._poll_shards()) == [1]
    finally:
        with victim.lock:
            victim.alive = True
    assert all(not handle.rpc_waiters for handle in backend.handles)


def test_metrics_merge_across_processes(fleet):
    assert fleet.ask("how many nodes are there",
                     graph=bench_graphs(1)[0]).ok
    snapshot = fleet.metrics_snapshot()
    stats = fleet.stats()
    # shard-side counters (executor events from requests served inside
    # worker processes) reach the merged fleet view
    assert snapshot["counters"].get("events_chain_finished", 0) > 0
    # the fleet rule: worker dumps summed, the coordinator's own series
    # on top — a request both lifecycles admitted is counted once
    assert snapshot["counters"]["admitted"] == stats["counters"]["admitted"]
    assert snapshot["latency"] == stats["latency"]
    worker_stats = fleet.backend.handles[0].last_stats["stats"]
    assert worker_stats["counters"]["admitted"] > 0
    # ...and what only a worker measures is visible fleet-wide
    assert worker_stats["pipeline_stages"]
    for stage in (*worker_stats["pipeline_stages"], "execute"):
        assert snapshot["histograms"][stage]["count"] > 0, stage
        assert stage not in stats["latency"]


def test_metrics_snapshot_is_one_poll(fleet, monkeypatch):
    """One ``stats`` frame per shard per report: sections, worker
    dumps and gauges all come from the same instant."""
    backend = fleet.backend
    send = backend._send_rpc
    polled = []

    def counting(handle, kind, payload):
        if kind == "stats":
            polled.append(handle.index)
        return send(handle, kind, payload)

    monkeypatch.setattr(backend, "_send_rpc", counting)
    fleet.metrics_snapshot()
    assert sorted(polled) == [0, 1]


def test_fleet_gauges_match_the_single_process_names(fleet, single):
    assert single.ask("how many nodes are there",
                      graph=bench_graphs(1)[0]).ok
    snapshot = fleet.metrics_snapshot()
    assert set(snapshot["gauges"]) == set(
        single.metrics_snapshot()["gauges"])
    assert snapshot["gauges"]["workers"] == 1.0
    stats = fleet.stats()
    assert stats["caches"]
    for name, cache in stats["caches"].items():
        # the ratio of fleet-summed hits and misses, not a sum of the
        # shards' own ratios
        per_shard = [entry["caches"][name]
                     for entry in stats["shards"]["per_shard"].values()]
        hits = sum(entry["hits"] for entry in per_shard)
        seen = hits + sum(entry["misses"] for entry in per_shard)
        assert seen > 0
        assert cache["hit_rate"] == round(hits / seen, 4)
        assert snapshot["gauges"][f"cache_{name}_hit_rate"] == \
            cache["hit_rate"]


def test_single_process_stats_has_empty_shards_section(single):
    shards = single.stats()["shards"]
    assert shards == {"count": 0, "alive": 0, "per_shard": {}}
