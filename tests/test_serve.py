"""Tests for the repro.serve service runtime.

Covers the ISSUE-1 acceptance points: concurrent results are
bit-identical to serial ones under a fixed seed, cache hit/miss
counters match expectations, a full admission queue rejects with
backpressure instead of blocking, plus the session store, rate
limiter, histogram and cache primitives.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import ChatGraph, ChatGraphServer, ServeConfig, ServeRequest
from repro.errors import (
    BackpressureError,
    RateLimitError,
    ServeError,
    SessionError,
)
from repro.graphs import fingerprint, knowledge_graph, social_network
from repro.loadgen import bench_workload
from repro.obs.metrics import Histogram
from repro.serve import (
    AdmissionQueue,
    LRUCache,
    PipelineCaches,
    RateLimiter,
    SessionStore,
    TokenBucket,
)
from repro.testing import slow_chatgraph


@pytest.fixture(scope="module")
def serve_chatgraph():
    """A private ChatGraph: serve tests attach caches to it freely."""
    return ChatGraph.pretrained(corpus_size=300, seed=0)


@pytest.fixture()
def social_graph_small():
    return social_network(30, 3, seed=1)


def make_server(chatgraph, **overrides) -> ChatGraphServer:
    defaults = dict(workers=2, queue_depth=32, enable_caches=True)
    defaults.update(overrides)
    return ChatGraphServer(chatgraph, ServeConfig(**defaults))


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
class TestLRUCache:
    def test_put_get_and_eviction(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1        # refreshes recency
        cache.put("c", 3)                 # evicts b (least recent)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.size == 2

    def test_hit_miss_counters(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("missing") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == 0.5

    def test_get_or_compute(self):
        cache = LRUCache(maxsize=4)
        calls = []

        def compute():
            calls.append(1)
            return 42

        assert cache.get_or_compute("k", compute) == 42
        assert cache.get_or_compute("k", compute) == 42
        assert len(calls) == 1

    def test_concurrent_access_is_safe(self):
        cache = LRUCache(maxsize=16)
        errors = []

        def worker(worker_id):
            try:
                for i in range(200):
                    cache.put((worker_id, i % 20), i)
                    cache.get((worker_id, (i + 3) % 20))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 16


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=2, refill_per_second=1.0,
                             clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(1.0)
        clock.advance(1.5)
        assert bucket.try_acquire()

    def test_zero_refill_never_recovers(self):
        bucket = TokenBucket(capacity=1, refill_per_second=0.0,
                             clock=FakeClock())
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        assert bucket.retry_after() == float("inf")


class TestHistogram:
    def test_quantiles_and_summary(self):
        histogram = Histogram()
        for value in (0.001, 0.002, 0.004, 0.008, 0.1):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 5
        assert summary["min"] == pytest.approx(0.001)
        assert summary["max"] == pytest.approx(0.1)
        assert summary["p50"] <= summary["p95"] <= summary["max"]
        # bucketed estimate: within a factor of two of the true median
        assert 0.002 <= summary["p50"] <= 0.008

    def test_empty(self):
        histogram = Histogram()
        assert histogram.quantile(0.5) == 0.0
        assert histogram.summary()["count"] == 0


class TestAdmissionQueue:
    def test_put_get_fifo(self):
        queue = AdmissionQueue(maxsize=4)
        queue.put("a")
        queue.put("b")
        assert queue.get() == "a"
        assert queue.get() == "b"

    def test_full_queue_rejects_with_retry_after(self):
        queue = AdmissionQueue(maxsize=2)
        queue.put("a")
        queue.put("b")
        with pytest.raises(BackpressureError) as info:
            queue.put("c")
        assert info.value.retry_after > 0
        assert info.value.depth == 2
        assert len(queue) == 2  # rejected item was not enqueued

    def test_closed_queue_rejects(self):
        queue = AdmissionQueue(maxsize=2)
        queue.close()
        with pytest.raises(ServeError):
            queue.put("a")

    def test_get_timeout_returns_none(self):
        queue = AdmissionQueue(maxsize=2)
        assert queue.get(timeout=0.01) is None


class FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestRateLimiter:
    def test_per_client_buckets(self):
        limiter = RateLimiter(capacity=2, refill_per_second=0.0,
                              clock=FakeClock())
        limiter.admit("alice")
        limiter.admit("alice")
        with pytest.raises(RateLimitError) as info:
            limiter.admit("alice")
        assert info.value.client_id == "alice"
        limiter.admit("bob")  # separate bucket

    def test_idle_full_buckets_are_evicted(self):
        # regression: one bucket per client-id ever seen grew forever
        clock = FakeClock()
        limiter = RateLimiter(capacity=2, refill_per_second=1.0,
                              clock=clock, idle_seconds=10.0)
        for client in ("a", "b", "c"):
            limiter.admit(client)
        assert len(limiter) == 3
        clock.advance(11.0)  # all idle and refilled back to capacity
        limiter.admit("d")   # triggers the sweep
        assert len(limiter) == 1  # only d survives

    def test_active_and_indebted_buckets_survive_sweep(self):
        clock = FakeClock()
        limiter = RateLimiter(capacity=2, refill_per_second=0.0,
                              clock=clock, idle_seconds=10.0)
        limiter.admit("debtor")  # no refill: bucket can never fill back
        limiter.admit("debtor")  # fully drained
        clock.advance(6.0)
        limiter.admit("active")
        clock.advance(5.0)       # debtor idle 11s, active idle 5s
        limiter.admit("fresh")
        # the sweep ran, but neither bucket qualified: active was seen
        # recently, debtor still owes a token (dropping it would forgive
        # the debt on recreation)
        assert len(limiter) == 3
        with pytest.raises(RateLimitError):
            limiter.admit("debtor")

    def test_sweep_rate_limited_to_idle_interval(self):
        clock = FakeClock()
        limiter = RateLimiter(capacity=2, refill_per_second=1.0,
                              clock=clock, idle_seconds=10.0)
        limiter.admit("a")
        clock.advance(5.0)
        limiter.admit("b")  # 5s since construction: no sweep yet
        assert len(limiter) == 2


# ----------------------------------------------------------------------
# session store
# ----------------------------------------------------------------------
class TestSessionStore:
    def test_get_or_create_reuses(self, serve_chatgraph):
        store = SessionStore(serve_chatgraph, ttl_seconds=60,
                             max_sessions=4)
        first = store.get_or_create("s1")
        second = store.get_or_create("s1")
        assert first.session is second.session
        assert len(store) == 1
        assert second.requests == 2

    def test_ttl_eviction(self, serve_chatgraph):
        clock = FakeClock()
        store = SessionStore(serve_chatgraph, ttl_seconds=10,
                             max_sessions=4, clock=clock)
        store.get_or_create("old")
        clock.advance(11)
        store.get_or_create("fresh")
        assert "old" not in store
        assert store.stats()["evicted_ttl"] == 1

    def test_lru_eviction_at_capacity(self, serve_chatgraph):
        store = SessionStore(serve_chatgraph, ttl_seconds=60,
                             max_sessions=2)
        store.get_or_create("a")
        store.get_or_create("b")
        store.get_or_create("a")        # refresh a; b becomes LRU
        store.get_or_create("c")        # evicts b
        assert "a" in store and "c" in store and "b" not in store
        assert store.stats()["evicted_lru"] == 1

    def test_get_missing_raises(self, serve_chatgraph):
        store = SessionStore(serve_chatgraph)
        with pytest.raises(SessionError):
            store.get("nope")
        assert not store.drop("nope")


# ----------------------------------------------------------------------
# server: behavior
# ----------------------------------------------------------------------
class TestServerBasics:
    def test_propose_execute_ask_roundtrip(self, serve_chatgraph,
                                           social_graph_small):
        with make_server(serve_chatgraph) as server:
            proposal = server.propose("write a brief report for G",
                                      graph=social_graph_small)
            assert proposal.ok
            assert proposal.value.chain.api_names()[-1] == \
                "generate_report"
            executed = server.execute(proposal.value)
            assert executed.ok
            assert executed.value.answer.startswith("Graph report")
            asked = server.ask("write a brief report for G",
                               graph=social_graph_small)
            assert asked.ok
            assert asked.value.answer == executed.value.answer

    def test_submit_requires_running_server(self, serve_chatgraph):
        server = make_server(serve_chatgraph)
        with pytest.raises(ServeError):
            server.propose("hello")

    def test_invalid_request_rejected(self, serve_chatgraph):
        with make_server(serve_chatgraph) as server:
            with pytest.raises(ServeError):
                server.request(ServeRequest(op="explode", text="x"))
            with pytest.raises(ServeError):
                server.request(ServeRequest(op="propose"))

    def test_failing_request_resolves_with_error(self, serve_chatgraph):
        with make_server(serve_chatgraph) as server:
            # validation happens before queueing, so exercise the worker
            # failure path with a poisoned pipeline_result
            class Boom:
                @property
                def chain(self):
                    raise RuntimeError("boom")

                prompt = None

            bad = ServeRequest(op="execute", pipeline_result=Boom())
            result = server.request(bad)
            assert not result.ok
            assert "boom" in result.error
            assert result.error_type == "RuntimeError"
            # the worker survived and keeps serving
            follow_up = server.propose("count the nodes")
            assert follow_up.ok

    def test_stats_snapshot_shape(self, serve_chatgraph,
                                  social_graph_small):
        with make_server(serve_chatgraph) as server:
            server.propose("summarize the graph",
                           graph=social_graph_small)
            snapshot = server.stats()
        assert snapshot["counters"]["admitted"] == 1
        assert snapshot["counters"]["op_propose"] == 1
        assert "queued" in snapshot["latency"]
        assert "retrieval" in snapshot["latency"]
        assert "generate" in snapshot["latency"]
        assert snapshot["queue"]["depth"] == 32
        assert snapshot["workers"] == 2
        assert "retrieval" in snapshot["caches"]
        # robustness introspection: breaker states + live limiter size
        assert snapshot["breakers"] == {}  # healthy run: no traffic yet
        assert snapshot["rate_limiter"]["clients"] >= 0

    def test_one_store_keeps_the_books_of_the_two(self, serve_chatgraph,
                                                  social_graph_small):
        """Fixed workload: every counter and latency series ``stats()``
        reported from the separate request-edge store (values measured
        at the commit before it folded into the registry) is still
        there with the same value; a superset (``events_*``) is fine."""
        config = ServeConfig(workers=1, queue_depth=32,
                             rate_limit_capacity=6,
                             rate_limit_refill_per_second=1.0)
        graph = social_graph_small
        with ChatGraphServer(serve_chatgraph, config,
                             clock=lambda: 0.0) as server:
            proposal = server.propose("summarize the graph", graph=graph)
            assert proposal.ok
            assert server.ask("how many nodes does G have",
                              graph=graph).ok
            assert server.ask("find the communities", graph=graph,
                              session_id="s").ok
            assert server.ask("how many nodes does G have",
                              session_id="s").ok
            assert server.execute(proposal.value).ok
            assert not server.ask("count the nodes",
                                  graph_name="nope").ok
            with pytest.raises(RateLimitError):  # bucket of 6, no refill
                server.ask("count the nodes", graph=graph)
            stats = server.stats()
            metrics = server.metrics_snapshot()
        expected_counters = {
            "admitted": 6, "failed": 1, "op_ask": 4, "op_execute": 1,
            "op_propose": 1, "rejected_rate_limit": 1}
        expected_latency = {
            "execute": 4, "generate": 4, "graph_type": 4, "intent": 4,
            "queued": 6, "retrieval": 4, "sequentialize": 4,
            "service": 6, "total": 6}
        for name, value in expected_counters.items():
            assert stats["counters"][name] == value, name
        for name, count in expected_latency.items():
            assert stats["latency"][name]["count"] == count, name
        # a single process has no fleet underneath: the metrics view
        # reads the same books
        assert metrics["counters"] == stats["counters"]
        assert metrics["latency"] == stats["latency"]
        assert metrics["histograms"] == stats["latency"]
        assert metrics["counters"]["events_chain_finished"] == 4
        assert metrics["gauges"] == {
            "breakers_open": 0.0, "cache_embeddings_hit_rate": 0.0,
            "cache_retrieval_hit_rate": 0.25,
            "cache_sequences_hit_rate": 0.75, "queue_size": 0.0,
            "sessions_live": 1.0, "workers": 1.0}

    def test_robustness_installed_only_while_running(
            self, serve_chatgraph):
        server = make_server(serve_chatgraph, step_max_retries=2)
        assert serve_chatgraph.robustness_policy is None
        with server:
            assert serve_chatgraph.robustness_policy is server.backend.policy
            assert serve_chatgraph.breakers is server.breakers
            # one listener: the registry is the only store it feeds
            assert serve_chatgraph.executor.listeners() == \
                (server.metrics.on_execution_event,)
        assert serve_chatgraph.robustness_policy is None
        assert serve_chatgraph.breakers is None
        assert serve_chatgraph.executor.listeners() == ()

    def test_session_dialog_accumulates(self, serve_chatgraph,
                                        social_graph_small):
        with make_server(serve_chatgraph) as server:
            server.ask("how many nodes does G have",
                       graph=social_graph_small, session_id="dlg")
            server.ask("find the communities", session_id="dlg")
            entry = server.sessions.get("dlg")
            user_turns = [turn for turn in entry.session.history
                          if turn.role == "user"]
            assert len(user_turns) == 2
            assert len(server.sessions) == 1

    def test_stop_without_drain_cancels_queued(self, serve_chatgraph):
        server = make_server(serve_chatgraph, workers=1, queue_depth=8)
        with slow_chatgraph(serve_chatgraph, 0.2):
            server.start()
            pending = [server.submit(ServeRequest(op="propose",
                                                  text="count the nodes"))
                       for __ in range(4)]
            server.stop(drain=False)
        responses = [item.result(timeout=5.0) for item in pending]
        cancelled = [r for r in responses if not r.ok]
        assert cancelled, "queued requests should be cancelled"
        assert all("stopped" in r.error for r in cancelled)


class TestBackpressure:
    def test_full_queue_rejects_not_blocks(self, serve_chatgraph):
        server = make_server(serve_chatgraph, workers=1, queue_depth=1)
        with slow_chatgraph(serve_chatgraph, 0.3), server:
            first = server.submit(ServeRequest(op="propose",
                                               text="count the nodes"))
            # wait until the worker has taken the first request off the
            # queue (it then sits in slow_chatgraph's 0.3 s delay)
            deadline = time.monotonic() + 10.0
            while len(server.lifecycle.queue) and \
                    time.monotonic() < deadline:
                time.sleep(0.001)
            assert len(server.lifecycle.queue) == 0
            server.submit(ServeRequest(op="propose",
                                       text="find communities"))
            with pytest.raises(BackpressureError) as info:
                server.submit(ServeRequest(op="propose",
                                           text="summarize G"))
            # the rejection came back while the worker was still held
            assert not first.done(), "rejection must not block"
            assert info.value.retry_after > 0
            assert first.result(timeout=10.0).ok
        assert server.stats()["counters"]["rejected_backpressure"] == 1

    def test_closed_queue_refusal_is_not_counted_as_shed_load(
            self, serve_chatgraph):
        """``stop()`` closes the queue before its drain, so a submit
        racing a shutdown is refused with a plain ``ServeError`` — that
        is not backpressure and must not be booked as it."""
        with make_server(serve_chatgraph, workers=1) as server:
            server.lifecycle.queue.close()
            with pytest.raises(ServeError) as info:
                server.submit(ServeRequest(op="propose",
                                           text="count the nodes"))
            assert not isinstance(info.value, BackpressureError)
            server.lifecycle.queue.reopen()
            assert server.propose("count the nodes").ok
        counters = server.stats()["counters"]
        assert counters.get("rejected_backpressure", 0) == 0
        assert counters["admitted"] == 1

    def test_rate_limited_client(self, serve_chatgraph):
        server = make_server(serve_chatgraph, rate_limit_capacity=2,
                             rate_limit_refill_per_second=0.0)
        with server:
            server.propose("count the nodes", client_id="greedy")
            server.propose("count the nodes", client_id="greedy")
            with pytest.raises(RateLimitError):
                server.propose("count the nodes", client_id="greedy")
            # other clients are unaffected
            assert server.propose("count the nodes",
                                  client_id="polite").ok
        assert server.stats()["counters"]["rejected_rate_limit"] == 1


# ----------------------------------------------------------------------
# server: caching
# ----------------------------------------------------------------------
class TestServeCaches:
    def test_cache_counters_match_expectations(self, serve_chatgraph,
                                               social_graph_small):
        with make_server(serve_chatgraph, workers=1) as server:
            for __ in range(3):
                server.propose("write a brief report for G",
                               graph=social_graph_small)
            stats = server.backend.caches.stats()
        # identical text+routing: 1 miss then 2 retrieval hits
        assert stats["retrieval"]["misses"] == 1
        assert stats["retrieval"]["hits"] == 2
        # identical graph: 1 miss then 2 sequentialize hits
        assert stats["sequences"]["misses"] == 1
        assert stats["sequences"]["hits"] == 2
        # the embedder is only consulted on the retrieval miss
        assert stats["embeddings"]["misses"] == 1
        assert stats["embeddings"]["hits"] == 0

    def test_cached_results_identical(self, serve_chatgraph,
                                      social_graph_small):
        with make_server(serve_chatgraph, workers=1) as server:
            cold = server.propose("write a brief report for G",
                                  graph=social_graph_small)
            warm = server.propose("write a brief report for G",
                                  graph=social_graph_small)
        assert cold.value.chain.api_names() == \
            warm.value.chain.api_names()
        assert cold.value.retrieved == warm.value.retrieved
        assert cold.value.sequences.feature_counts == \
            warm.value.sequences.feature_counts

    def test_caches_disabled(self, serve_chatgraph, social_graph_small):
        with make_server(serve_chatgraph,
                         enable_caches=False) as server:
            response = server.propose("write a brief report for G",
                                      graph=social_graph_small)
            assert response.ok
            assert server.backend.caches is None
            assert server.stats()["caches"] == {}

    def test_graph_fingerprint_is_content_keyed(self):
        a = social_network(20, 3, seed=5)
        b = social_network(20, 3, seed=5)
        c = social_network(20, 3, seed=6)
        assert fingerprint(a) == fingerprint(b)
        assert fingerprint(a) != fingerprint(c)


# ----------------------------------------------------------------------
# server: concurrency + determinism (ISSUE acceptance)
# ----------------------------------------------------------------------
class TestConcurrencyDeterminism:
    def test_concurrent_equals_serial(self, serve_chatgraph):
        """>= 8 threads of propose/ask match serial bit-for-bit."""
        workload = bench_workload(16, n_graphs=4)
        asks = [ServeRequest(op="ask", text=request.text,
                             graph=request.graph)
                for request in workload[:6]]

        def run(server, submit_concurrently):
            with server:
                if submit_concurrently:
                    pending = []
                    barrier = threading.Barrier(8)
                    lock = threading.Lock()

                    def submit_slice(requests):
                        barrier.wait()
                        for request in requests:
                            handle = server.submit(request)
                            with lock:
                                pending.append((request, handle))

                    everything = list(workload) + list(asks)
                    slices = [everything[i::8] for i in range(8)]
                    threads = [threading.Thread(target=submit_slice,
                                                args=(part,))
                               for part in slices]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                    resolved = {id(request): handle.result(60.0)
                                for request, handle in pending}
                    ordered = [resolved[id(request)]
                               for request in everything]
                else:
                    ordered = [server.request(request)
                               for request in list(workload) + list(asks)]
            return ordered

        serial = run(make_server(serve_chatgraph, workers=1), False)
        concurrent = run(make_server(serve_chatgraph, workers=8), True)

        assert all(r.ok for r in serial)
        assert all(r.ok for r in concurrent)
        for left, right in zip(serial, concurrent):
            assert left.seed == right.seed
            if left.op == "propose":
                assert left.value.chain.api_names() == \
                    right.value.chain.api_names()
                assert left.value.retrieved == right.value.retrieved
                assert left.value.intent == right.value.intent
            else:
                assert left.value.answer == right.value.answer
                assert left.value.chain.api_names() == \
                    right.value.chain.api_names()

    def test_concurrent_sessions_are_isolated(self, serve_chatgraph):
        graphs = {f"s{i}": knowledge_graph(20 + i, 60, seed=i)
                  for i in range(8)}
        with make_server(serve_chatgraph, workers=8) as server:
            threads = []
            answers = {}
            lock = threading.Lock()

            def chat(session_id):
                response = server.ask("clean the knowledge graph",
                                      graph=graphs[session_id],
                                      session_id=session_id)
                with lock:
                    answers[session_id] = response

            for session_id in graphs:
                thread = threading.Thread(target=chat,
                                          args=(session_id,))
                threads.append(thread)
                thread.start()
            for thread in threads:
                thread.join()
            assert len(server.sessions) == 8
        assert all(response.ok for response in answers.values())
        # each session answered against its own graph: serial replay on
        # a fresh server must reproduce each answer exactly
        with make_server(serve_chatgraph, workers=1) as server:
            for session_id, graph in graphs.items():
                replay = server.ask("clean the knowledge graph",
                                    graph=graph, session_id=session_id)
                assert replay.value.answer == \
                    answers[session_id].value.answer


class TestDeterministicSeeding:
    def test_seed_is_content_keyed(self):
        request = ServeRequest(op="propose", text="hello",
                               client_id="c1")
        same = ServeRequest(op="propose", text="hello", client_id="c1")
        other = ServeRequest(op="propose", text="world", client_id="c1")
        assert request.content_seed(0) == same.content_seed(0)
        assert request.content_seed(0) != other.content_seed(0)
        assert request.content_seed(0) != request.content_seed(1)

    def test_request_seed_reaches_execution_context(self, serve_chatgraph,
                                                    social_graph_small):
        with make_server(serve_chatgraph, workers=1) as server:
            response = server.ask("summarize the graph",
                                  graph=social_graph_small)
            assert response.seed == ServeRequest(
                op="ask", text="summarize the graph").content_seed(0)
            assert response.value.prompt.attachments[
                "request_seed"] == response.seed


class TestStatsUnderLoad:
    """Snapshots must stay responsive and self-consistent while
    workers are mid-request (here: held by slow_chatgraph)."""

    def test_stats_responsive_while_backend_sleeps(self,
                                                   serve_chatgraph):
        workload = bench_workload(6, n_graphs=2)
        server = ChatGraphServer(
            serve_chatgraph,
            ServeConfig(workers=2, queue_depth=32, enable_caches=False))
        with slow_chatgraph(serve_chatgraph, 0.4), server:
            pending = [server.submit(request) for request in workload]
            time.sleep(0.1)  # workers are now asleep in the delay
            began = time.perf_counter()
            snapshot = server.stats()
            metrics = server.metrics_snapshot()
            elapsed = time.perf_counter() - began
            responses = [item.result(timeout=120.0) for item in pending]
        # snapshots render from copied state: never blocked behind a
        # worker's 0.4s pause, and every histogram is self-consistent
        assert elapsed < 0.25
        assert all(r.ok for r in responses)
        for summary in snapshot["latency"].values():
            if summary["count"]:
                assert summary["min"] <= summary["mean"] <= summary["max"]
                assert summary["p50"] <= summary["p95"] <= summary["p99"]
        assert server.stats()["counters"]["op_propose"] == len(workload)
        assert isinstance(metrics, dict)

    def test_histogram_summary_consistent_under_concurrent_observe(self):
        histogram = Histogram()
        stop = threading.Event()

        def hammer():
            value = 1e-4
            while not stop.is_set():
                histogram.observe(value)
                value = value * 1.7 if value < 1.0 else 1e-4

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(300):
                summary = histogram.summary()
                if summary["count"] == 0:
                    continue
                # a torn snapshot shows e.g. count>0 with mean/max from
                # an older point in time; a single-lock copy cannot
                assert summary["min"] <= summary["mean"] <= \
                    summary["max"] * (1 + 1e-9)
                assert summary["p50"] <= summary["p95"] <= \
                    summary["p99"] <= summary["max"] * (1 + 1e-9)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
