"""End-to-end sharded serving: parity, routing, stats, observability,
and the worker processes' lifecycle.

The routing and protocol tests share one module-scoped 2-shard fleet
on the loopback link (``tests/shard_loopback.py``: each worker is a
thread of this process over a pipe pair), so they cost no process
boot.  The parity tests are the acceptance core: a sharded response
must flatten to the same canonical bytes as the single-process
server's for the same content-seeded request — on the loopback *and*
on real worker processes.  The last section runs real processes only:
the spawn deadline, a restart racing ``stop()``, and no process or fd
outliving ``stop()``.
"""

from __future__ import annotations

import gc
import os
import threading
import time
import warnings

import pytest

import repro.runtime.shard as shard_runtime
from repro import ChatGraph, ChatGraphServer, ServeConfig, ServeRequest
from repro.errors import ServeError
from repro.graphs.io import from_dict, to_dict
from repro.runtime import RequestLifecycle, ShardBackend
from repro.serve.engine import PendingRequest
from repro.shard import ShardModelSpec, ShardedChatGraphServer
from repro.shard.protocol import dumps_canonical, value_to_wire
from repro.testing.workloads import PROMPTS, bench_graphs, canonical_graph

from .shard_loopback import loopback_links

CORPUS = 150


def _fleet(shards=2):
    return ShardedChatGraphServer(
        ShardModelSpec(corpus_size=CORPUS, seed=0),
        ServeConfig(shards=shards, workers=1, queue_depth=64))


@pytest.fixture(scope="module")
def fleet():
    # links are picked at spawn, so only the boot needs the patch (and
    # the real-process fleet below spawns real processes beside it)
    server = _fleet()
    with loopback_links():
        server.start()
    try:
        yield server
    finally:
        server.stop()


@pytest.fixture(scope="module")
def process_fleet():
    with _fleet() as server:
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


@pytest.mark.parametrize("link", ["loopback", "process"])
def test_parity_with_single_process(link, request, single):
    fleet = request.getfixturevalue(
        {"loopback": "fleet", "process": "process_fleet"}[link])
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


# ----------------------------------------------------------------------
# the backend's in-flight books, with no link at all (bound, never booted)
# ----------------------------------------------------------------------
def _bound_fleet(shards: int = 2, **config):
    """A ``ShardBackend`` bound to a lifecycle but never booted: no
    links, handles marked alive and beating by hand (a handle left at
    ``last_beat == 0`` is silent, and a sweep would restart it)."""
    lifecycle = RequestLifecycle(
        ServeConfig(shards=shards, **config), ShardBackend(model_wire={}))
    backend = lifecycle.backend
    for handle in backend.handles:
        handle.alive = True
        handle.last_beat = time.monotonic()
    return lifecycle, backend


def _routed(backend, text: str, request_id: int) -> PendingRequest:
    item = PendingRequest(ServeRequest(op="ask", text=text),
                          request_id=request_id,
                          enqueued_at=time.perf_counter())
    backend.prepare(item)
    return item


def _in_flight(backend, handle, items, dispatched_at):
    """Register ``items`` as sent to ``handle`` at ``dispatched_at``."""
    for item in items:
        item.dispatched_at = dispatched_at
        handle.inflight[item.request_id] = (handle.generation, item)
    backend._outstanding += len(items)


def _reply_frame(item):
    return {"type": "reply", "response": {
        "request_id": item.request_id, "op": "ask", "ok": True}}


def test_gather_feeds_backpressure_ema_the_amortized_cost(monkeypatch):
    """Four requests overlapping on one shard share its time; the EMA
    behind ``BackpressureError.retry_after`` must not see the whole
    round trip once per request.  The amortization: each reply feeds
    its round trip divided by the shard's in-flight count, itself
    included — a quarter for the first of four, as ``LocalBackend``
    feeds for a flush of four."""
    lifecycle, backend = _bound_fleet()
    fed: list[float] = []
    monkeypatch.setattr(lifecycle, "record_service_time", fed.append)
    handle = backend.handles[0]
    items = [_routed(backend, f"q{i}", i) for i in range(4)]
    _in_flight(backend, handle, items, time.perf_counter() - 0.4)
    for item in items:
        backend._gather(handle, handle.generation, _reply_frame(item))
    assert all(item.result(timeout=1.0).ok for item in items)
    assert handle.pending_count == 0 and backend._outstanding == 0
    # every request reports its own full round trip as its service...
    services = [item.result().service_seconds for item in items]
    assert min(services) >= 0.4
    # ...but the EMA is fed that round trip over the sharing count
    assert fed == pytest.approx([service / sharing for service, sharing
                                 in zip(services, (4, 3, 2, 1))])


def test_sweep_fails_a_hung_request_once_and_drops_its_late_reply(
        monkeypatch):
    """A request a live shard never answers fails after
    ``RESULT_TIMEOUT_SECONDS`` with a ServeError — exactly one reply,
    books balanced — and the reply arriving after that is ignored."""
    lifecycle, backend = _bound_fleet()
    monkeypatch.setattr(shard_runtime, "RESULT_TIMEOUT_SECONDS", 0.1)
    handle = backend.handles[0]
    hung, fresh = _routed(backend, "hung", 1), _routed(backend, "fresh", 2)
    _in_flight(backend, handle, [hung], time.perf_counter() - 1.0)
    _in_flight(backend, handle, [fresh], time.perf_counter())
    replies = []
    hung.add_done_callback(lambda done: replies.append(done.result()))
    backend._sweep()
    (response,) = replies
    assert not response.ok and response.error_type == "ServeError"
    assert "did not answer" in response.error
    assert not fresh.done()  # within its bound: still in flight
    assert handle.pending_count == 1 and backend._outstanding == 1
    backend._gather(handle, handle.generation, _reply_frame(hung))
    assert len(replies) == 1 and hung.result() is response
    assert handle.pending_count == 1 and backend._outstanding == 1
    counters = lifecycle.metrics.snapshot()["counters"]
    assert counters["failed"] == 1 and counters["op_ask"] == 1
    # a hung request is not a dead shard: none died, none restarts
    assert all(handle.alive for handle in backend.handles)
    assert not backend._threads


def test_stop_racing_a_death_leaves_no_restart_behind(monkeypatch):
    """A shard dying while ``stop()`` runs: the death path's "not
    stopping, so restart" decision and the restart thread's
    registration are one step against ``stop()`` marking the fleet
    stopping, so ``stop()`` either prevents the restart or waits for
    it — it never returns with a restart still to start."""
    lifecycle, backend = _bound_fleet(shards=1)
    stop_returned = threading.Event()
    restarts = []
    monkeypatch.setattr(backend, "_restart_shard", lambda handle:
                        restarts.append(stop_returned.is_set()))

    def stop():
        deadline = time.monotonic() + 5.0
        backend.shutdown(False, deadline)
        backend.finalize(deadline)
        stop_returned.set()

    start_thread = shard_runtime._start_thread

    def stop_once_restart_is_decided(target, *args, name):
        if name.startswith("shard-restart-"):
            # a whole stop() fits here unless the decision locks it out
            start_thread(stop, name="stopper").join(0.5)
        return start_thread(target, *args, name=name)

    monkeypatch.setattr(shard_runtime, "_start_thread",
                        stop_once_restart_is_decided)
    handle = backend.handles[0]
    backend._on_shard_down(handle, handle.generation)
    assert stop_returned.wait(5.0)
    assert restarts == [False]


# ----------------------------------------------------------------------
# worker processes: real ones only
# ----------------------------------------------------------------------
@pytest.fixture()
def spawned_pids(monkeypatch):
    """The pid of every worker process spawned during the test."""
    pids = []

    class RecordedLink(shard_runtime.ShardLink):
        def spawn(self, init, deadline):
            try:
                return super().spawn(init, deadline)
            finally:
                pids.append(self.pid)

    monkeypatch.setattr(shard_runtime, "ShardLink", RecordedLink)
    return pids


def _reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _wait_until(condition, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


def test_spawn_deadline_fails_start_and_reaps_the_worker(
        monkeypatch, spawned_pids):
    """A worker silent past ``SPAWN_TIMEOUT_SECONDS`` is killed and
    reaped, and ``start()`` raises naming it — not a fleet that boots
    "up" with no live shard and comes alive seconds later."""
    monkeypatch.setattr(shard_runtime, "SPAWN_TIMEOUT_SECONDS", 0.3)
    server = _fleet(shards=1)
    with pytest.raises(ServeError, match="shard 0 failed to start: "
                                         "shard 0 did not say hello"):
        server.start()
    assert not server.lifecycle.running
    assert not server.handles[0].alive
    assert len(spawned_pids) == 1 and _reaped(spawned_pids[0])


def test_spawn_deadline_fails_add_shard(process_fleet, monkeypatch,
                                        spawned_pids):
    monkeypatch.setattr(shard_runtime, "SPAWN_TIMEOUT_SECONDS", 0.3)
    with pytest.raises(ServeError, match="shard 2 did not say hello"):
        process_fleet.add_shard()
    assert list(process_fleet.ring.shards) == [0, 1]
    assert len(process_fleet.handles) == 2
    assert len(spawned_pids) == 1 and _reaped(spawned_pids[0])


def test_restart_racing_stop_leaves_no_worker(spawned_pids, monkeypatch):
    """A restart still building its worker when ``stop()`` runs is
    waited for, and kills the worker it brings up."""
    server = _fleet(shards=1)
    backend = server.backend
    held, release = threading.Event(), threading.Event()

    class HeldLink(shard_runtime.ShardLink):
        def spawn(self, init, deadline):
            # only the restart's spawn waits, until stop() has begun
            if threading.current_thread().name.startswith(
                    "shard-restart-"):
                held.set()
                assert release.wait(60.0)
            return super().spawn(init, deadline)

    monkeypatch.setattr(shard_runtime, "ShardLink", HeldLink)
    threading.Thread(target=lambda: _wait_until(
        lambda: backend._stopping) and release.set(), daemon=True).start()
    with server:
        handle = server.handles[0]
        server.kill_shard(0)
        assert held.wait(60.0)
    assert release.is_set()
    # stop() waited for the restart, which found the fleet stopping
    assert not [thread for thread in backend._threads if thread.is_alive()]
    assert server.metrics_snapshot()["counters"][
        "shard_restart_failed"] == 1
    assert not handle.alive and handle.link is None
    assert len(spawned_pids) == 2
    assert all(_reaped(pid) for pid in spawned_pids)


def _churn_a_fleet():
    """Boot, a kill and its restart, a grow and a shrink, stop."""
    with _fleet() as server:
        graph = bench_graphs(1)[0]
        assert server.ask("how many nodes are there", graph=graph).ok
        victim = server.handles[0]
        server.kill_shard(0)
        assert _wait_until(lambda: victim.restarts == 1 and victim.alive)
        server.add_shard()
        server.remove_shard(1)
        assert server.ask("how many nodes are there", graph=graph).ok


def test_no_worker_or_fd_outlives_stop(spawned_pids):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        _churn_a_fleet()
        gc.collect()
    leaks = [str(w.message) for w in caught
             if issubclass(w.category, ResourceWarning)]
    assert not leaks, leaks
    assert len(spawned_pids) == 4  # two boots, one restart, one add
    assert [pid for pid in spawned_pids if not _reaped(pid)] == []
