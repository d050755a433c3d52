"""Kill-a-shard chaos: failover, breaker flow, restart, exact books.

A shard worker is SIGKILLed — or, in the wedged case, SIGSTOPped so
only its heartbeat silence gives it away — while a stream of requests
is in flight.  The contract: every admitted request still resolves
(orphans fail over along the ring preference), the ``shard:<i>``
breaker trips and surfaces through ``breaker_opened``, a background
restart returns the fleet to full strength with the breaker reset, and
the coordinator's counters reconcile exactly against the caller's own
ledger — a lost or double-counted request is a bug, not noise.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

import repro.runtime.shard as shard_runtime
from repro import ServeConfig, ServeRequest
from repro.shard import ShardModelSpec, ShardedChatGraphServer
from repro.testing.workloads import PROMPTS, bench_graphs

CORPUS = 150
RECOVERY_TIMEOUT = 60.0


def _fleet():
    return ShardedChatGraphServer(
        ShardModelSpec(corpus_size=CORPUS, seed=0),
        ServeConfig(shards=2, workers=1, queue_depth=256))


def _requests(n, tag):
    graphs = bench_graphs(4)
    return [
        ServeRequest(op="ask",
                     text=f"{PROMPTS[i % len(PROMPTS)]} [{tag} {i}]",
                     graph=graphs[i % len(graphs)])
        for i in range(n)
    ]


def _wait_until(condition, timeout):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.001)
    return condition()


def _recovered(server):
    return (all(handle.alive for handle in server.handles)
            and not server.breakers.open_names())


@pytest.fixture(scope="module")
def report():
    """One kill-a-shard run; the tests below assert on its ledger."""
    server = _fleet()
    n = 30
    requests = _requests(n, "chaos")
    with server:
        # route to discover which shard owns the first request, then
        # kill that one specifically — and only once the router has
        # parked work on it, so the kill is guaranteed to orphan
        # something (killed any earlier, zero failovers is correct)
        victim = server.ring.lookup(
            ShardedChatGraphServer.routing_key(requests[0]))
        pending = []
        for index, request in enumerate(requests):
            if index == 5:
                assert _wait_until(
                    lambda: server.handles[victim].pending_count > 0, 10.0)
                server.kill_shard(victim)
            pending.append(server.submit(request))
        responses = [item.result(timeout=120.0) for item in pending]
        _wait_until(lambda: _recovered(server), RECOVERY_TIMEOUT)
        stats = server.stats()
        open_after = sorted(server.breakers.open_names())
        handles = [(handle.deaths, handle.restarts)
                   for handle in server.handles]
    return {"n": n, "victim": victim, "responses": responses,
            "stats": stats, "open_after": open_after,
            "handles": handles}


def test_no_request_is_lost(report):
    failed = [r for r in report["responses"] if not r.ok]
    assert not failed, failed[:3]
    assert len(report["responses"]) == report["n"]


def test_death_was_detected_and_breaker_tripped(report):
    counters = report["stats"]["counters"]
    assert counters["shard_deaths"] == 1
    assert counters["breaker_opened"] >= 1
    assert counters["shard_failovers"] >= 1


def test_fleet_recovered(report):
    assert report["open_after"] == []
    assert counters_alive(report) == 2
    victim_deaths, victim_restarts = report["handles"][report["victim"]]
    assert victim_deaths == 1 and victim_restarts >= 1


def counters_alive(report):
    return report["stats"]["shards"]["alive"]


def test_books_reconcile_exactly(report):
    counters = report["stats"]["counters"]
    ops = sum(value for name, value in counters.items()
              if name.startswith("op_"))
    assert counters["admitted"] == report["n"]
    assert ops == report["n"]  # each request resolved exactly once
    assert counters.get("failed", 0) == 0


def test_wedged_shard_is_found_by_heartbeat_silence(monkeypatch):
    """A stopped process holds its pipe open, so no EOF ever comes: only
    the heartbeat monitor can declare it dead.  The timeout is a module
    constant read at use — patched here as a knob would have been set."""
    monkeypatch.setattr(shard_runtime, "HEARTBEAT_TIMEOUT_SECONDS", 1.5)
    server = _fleet()
    n = 12
    requests = _requests(n, "wedge")
    with server:
        victim = server.handles[server.ring.lookup(
            ShardedChatGraphServer.routing_key(requests[0]))]
        pending = [server.submit(request) for request in requests[:4]]
        assert _wait_until(lambda: victim.pending_count > 0, 10.0)
        os.kill(victim.pid, signal.SIGSTOP)
        pending += [server.submit(request) for request in requests[4:]]
        responses = [item.result(timeout=120.0) for item in pending]
        assert _wait_until(lambda: _recovered(server), RECOVERY_TIMEOUT)
        stats = server.stats()
        metrics = server.metrics_snapshot()["counters"]
    assert all(response.ok for response in responses)
    assert metrics["shard_heartbeat_timeouts"] >= 1
    counters = stats["counters"]
    assert counters["shard_deaths"] == 1
    assert (victim.deaths, victim.restarts) == (1, 1)
    assert stats["shards"]["alive"] == 2
    ops = sum(value for name, value in counters.items()
              if name.startswith("op_"))
    assert counters["admitted"] == ops == n
    assert counters.get("failed", 0) == 0
