"""Satellite surfaces of the fleet: async compaction, catalog reads
across a reshape, cross-process trace/metrics merging, and the plumbing
they ride on (breaker trip/reset, the trace CLI's multi-input merge, the
completion hooks a shard worker writes its replies from).
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro import ChatGraph, ChatGraphServer, ServeConfig
from repro.cli import trace_main
from repro.errors import StoreError
from repro.graphs import social_network
from repro.obs import (
    Histogram,
    load_trace,
    merge_traces,
    read_trace,
)
from repro.serve.breaker import BreakerRegistry
from repro.serve.engine import PendingRequest, ServeRequest
from repro.store import CompactTicket, GraphCatalog


# ----------------------------------------------------------------------
# GraphCatalog.compact_async
# ----------------------------------------------------------------------
def test_compact_async_runs_on_maintenance_thread(tmp_path):
    catalog = GraphCatalog(tmp_path)
    handle = catalog.create("g1")
    handle.ingest(social_network(12, 2, seed=0))
    events = []
    threads = []

    def listener(name, epochs):
        events.append((name, list(epochs)))
        threads.append(threading.current_thread().name)

    catalog.add_compact_listener(listener)
    ticket = catalog.compact_async("g1")
    assert isinstance(ticket, CompactTicket)
    epoch = ticket.wait(timeout=30.0)
    assert epoch >= 1 and ticket.done()
    assert events == [("g1", events[0][1])]
    # listeners fire on the maintenance daemon, never a serving thread
    assert threads == ["catalog-maintenance"]
    assert ticket.wait(timeout=0.0) == epoch  # idempotent after done
    catalog.close()


def test_compact_async_jobs_run_in_order(tmp_path):
    catalog = GraphCatalog(tmp_path)
    for name in ("a", "b"):
        handle = catalog.create(name)
        handle.ingest(social_network(10, 2, seed=1))
    first = catalog.compact_async("a")
    second = catalog.compact_async("b")
    assert second.wait(timeout=30.0) >= 1
    assert first.done()  # FIFO: a finished before b resolved
    catalog.close()


def test_compact_async_unknown_name_fails_fast(tmp_path):
    catalog = GraphCatalog(tmp_path)
    with pytest.raises(StoreError, match="no graph named"):
        catalog.compact_async("missing")
    catalog.close()


# ----------------------------------------------------------------------
# cache entries over catalog graphs (nothing pre-fills a cache)
# ----------------------------------------------------------------------
def test_warm_caches_counts_entries(tmp_path, chatgraph):
    """The first read of a catalog graph is what inserts its sequence
    entry: a miss, not a hit, and a repeat read is then a hit."""
    catalog = GraphCatalog(tmp_path)
    handle = catalog.create("warm-me")
    handle.ingest(social_network(16, 2, seed=2))
    config = ServeConfig(workers=1, queue_depth=8)
    server = ChatGraphServer(chatgraph, config, catalog=catalog)
    with server:
        assert not hasattr(server, "warm_caches")
        response = server.ask("how many nodes are there",
                              graph_name="warm-me")
        assert response.ok
        caches = server.stats()["caches"]
        assert caches["sequences"]["size"] >= 1
        assert caches["sequences"]["hits"] == 0
        assert caches["sequences"]["misses"] >= 1
        again = server.ask("how many nodes are there",
                           graph_name="warm-me")
        assert again.ok
        assert server.stats()["caches"]["sequences"]["hits"] >= 1
    catalog.close()


def test_warm_caches_off_by_default(tmp_path, chatgraph):
    """Starting a server over a catalog warms nothing: every cache
    starts empty and no warm counter exists."""
    catalog = GraphCatalog(tmp_path)
    catalog.create("cold").ingest(social_network(16, 2, seed=2))
    with ChatGraphServer(chatgraph, ServeConfig(workers=1, queue_depth=8),
                         catalog=catalog) as server:
        caches = server.stats()["caches"]
        assert caches["sequences"]["size"] == 0
        assert caches["retrieval"]["size"] == 0
        assert "cache_warmed_entries" not in server.stats()["counters"]
    catalog.close()


def test_catalog_reads_match_a_single_server_across_reshapes(tmp_path,
                                                            loopback):
    """Reads of two catalog graphs by name answer byte-equal to an
    in-process server over the same store before ``add_shard()``, after
    it and after ``remove_shard(0)``; each reshape sends only the
    ``sessions``, ``adopt`` and ``evict`` RPCs."""
    from repro.graphs import knowledge_graph
    from repro.shard import ShardModelSpec, ShardedChatGraphServer
    from repro.shard.protocol import dumps_canonical, value_to_wire

    catalog = GraphCatalog(tmp_path)
    catalog.create("social").ingest(social_network(16, 2, seed=2))
    catalog.create("kg", directed=True).ingest(
        knowledge_graph(n_entities=20, n_facts=60, seed=3))
    catalog.close()
    config = ServeConfig(workers=1, queue_depth=64,
                         store_root=str(tmp_path))
    single = ChatGraphServer(ChatGraph.pretrained(corpus_size=150, seed=0),
                             config)
    fleet = ShardedChatGraphServer(
        ShardModelSpec(corpus_size=150, seed=0),
        dataclasses.replace(config, shards=2))
    backend = fleet.backend
    rpc = backend._rpc
    kinds: list[str] = []

    def spy(kind, payloads, deadline):
        kinds.append(kind)
        return rpc(kind, payloads, deadline)

    backend._rpc = spy

    def assert_reads_match() -> None:
        for name in ("social", "kg"):
            for text in ("how many nodes are there",
                         "write a brief report for G"):
                local = single.ask(text, graph_name=name)
                remote = fleet.ask(text, graph_name=name)
                assert local.ok and remote.ok, (local.error, remote.error)
                assert dumps_canonical(value_to_wire("ask", local.value)) \
                    == dumps_canonical(value_to_wire("ask", remote.value)), \
                    (name, text)

    with single, fleet:
        assert_reads_match()
        for reshape in (fleet.add_shard, lambda: fleet.remove_shard(0)):
            kinds.clear()
            reshape()
            assert kinds and set(kinds) <= {"sessions", "adopt", "evict"}
            assert_reads_match()


# ----------------------------------------------------------------------
# merge_traces / trace CLI --input --input
# ----------------------------------------------------------------------
def _span(span_id, parent_id=None, name="request", index=0,
          kind="request"):
    return {"span_id": span_id, "parent_id": parent_id, "name": name,
            "index": index, "kind": kind, "attrs": {}}


def test_merge_traces_unions_by_span_id():
    coordinator = [_span("r1"), _span("r2")]
    shard = [_span("r1"), _span("s1", parent_id="r1", name="stage")]
    merged = merge_traces(coordinator, shard)
    assert [d["span_id"] for d in merged] == ["r1", "s1", "r2"]
    # duplicates collapse: r1 appears once
    assert sum(1 for d in merged if d["span_id"] == "r1") == 1


def test_trace_cli_merges_multiple_inputs(tmp_path, capsys):
    import json

    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    merged_path = tmp_path / "merged.jsonl"
    a.write_text("\n".join(json.dumps(d) for d in
                           [_span("r1"), _span("c1", "r1", "stage")])
                 + "\n")
    b.write_text("\n".join(json.dumps(d) for d in
                           [_span("r1"), _span("c2", "r1", "stage",
                                               index=1)]) + "\n")
    code = trace_main(["--input", str(a), "--input", str(b),
                       "--check", "--canonical",
                       "--out", str(merged_path)])
    assert code == 0
    merged = read_trace(merged_path)
    assert [d["span_id"] for d in merged] == ["r1", "c1", "c2"]
    out = capsys.readouterr()
    assert "trace check: OK" in out.out


def test_trace_cli_single_input_unchanged(tmp_path, capsys):
    import json

    log = tmp_path / "one.jsonl"
    log.write_text(json.dumps(_span("r1")) + "\n")
    assert trace_main(["--input", str(log), "--check"]) == 0
    assert "trace check: OK" in capsys.readouterr().out


def test_load_trace_rejects_bad_lines():
    with pytest.raises(ValueError, match="bad span log line"):
        load_trace('{"span_id": "a"}\nnot json\n')


# ----------------------------------------------------------------------
# metrics merging
# ----------------------------------------------------------------------
def test_histogram_dump_merge_is_lossless():
    one, two, ref = Histogram(), Histogram(), Histogram()
    # dyadic values: partial sums are exact, so the merged mean must
    # equal the reference mean bit for bit
    for value in (0.0625, 0.25, 0.5):
        one.observe(value)
        ref.observe(value)
    for value in (0.125, 1.0, 2.0):
        two.observe(value)
        ref.observe(value)
    merged = Histogram.merged_summary([one.dump(), two.dump()])
    assert merged == ref.summary()
    empty = Histogram().dump()
    assert empty["min"] is None  # JSON-safe empty form
    assert Histogram.merged_summary([empty])["count"] == 0


# ----------------------------------------------------------------------
# plumbing: breaker trip/reset
# ----------------------------------------------------------------------
def test_breaker_registry_trip_and_reset_one():
    registry = BreakerRegistry(failure_threshold=3)
    assert registry.trip("shard:0") is True
    assert registry.trip("shard:0") is False  # already open
    assert list(registry.open_names()) == ["shard:0"]
    assert registry.snapshot()["shard:0"]["state"] == "open"
    registry.reset_one("shard:0")
    assert list(registry.open_names()) == []


# ----------------------------------------------------------------------
# PendingRequest completion hooks
# ----------------------------------------------------------------------
def test_done_callback_runs_once_whenever_it_is_attached():
    """The completion hook a shard worker writes replies from: attached
    before resolution it runs on the resolving call, attached after it
    runs at once — and never twice."""
    early = PendingRequest(ServeRequest(op="ask", text="q"), 1, 0.0)
    calls = []
    early.add_done_callback(calls.append)
    assert calls == []
    early._resolve(object())
    assert calls == [early]
    early.add_done_callback(calls.append)
    assert calls == [early, early]  # the late hook ran at once
    early._run_hooks()
    assert calls == [early, early]


def test_done_callback_races_resolution_without_loss_or_repeat():
    """Hooks attached on two threads while two others resolve: every
    hook runs exactly once, whichever side wins each race."""
    items = [PendingRequest(ServeRequest(op="ask", text="q"), index, 0.0)
             for index in range(10000)]
    calls = []

    def attach():
        for item in items:
            item.add_done_callback(lambda done: calls.append(
                done.request_id))

    def resolve(share):
        for item in share:
            item._resolve(None)

    threads = [threading.Thread(target=attach),
               threading.Thread(target=attach),
               threading.Thread(target=resolve, args=(items[::2],)),
               threading.Thread(target=resolve, args=(items[1::2],))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(calls) == sorted(2 * list(range(len(items))))
