"""Tests for request micro-batching (repro.serve.microbatch + engine).

The batcher must only coalesce stateless ``propose``/``ask`` requests,
flush on size or deadline, and — end to end — a micro-batched server
must return bit-identical responses to the scalar path while recording
the ``microbatched`` counter and ``microbatch_size`` histogram.
"""

from __future__ import annotations

import pytest

from repro import ChatGraph, ChatGraphServer, ServeConfig, ServeRequest
from repro.config import ObsConfig
from repro.graphs import knowledge_graph
from repro.loadgen import bench_workload
from repro.serve import AdmissionQueue, MicroBatcher
from repro.serve.engine import PendingRequest
from repro.testing import slow_chatgraph


class FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


def _pending(op: str, session_id: str | None = None) -> PendingRequest:
    request = ServeRequest(op=op, text="t", session_id=session_id)
    return PendingRequest(request, request_id=0, enqueued_at=0.0)


@pytest.fixture(scope="module")
def serve_chatgraph():
    return ChatGraph.pretrained(corpus_size=300, seed=0)


class TestBatchable:
    def test_stateless_propose_and_ask_batch(self):
        assert MicroBatcher.batchable(_pending("propose"))
        assert MicroBatcher.batchable(_pending("ask"))

    def test_session_bound_requests_do_not_batch(self):
        assert not MicroBatcher.batchable(_pending("propose", "s1"))
        assert not MicroBatcher.batchable(_pending("ask", "s1"))

    def test_execute_does_not_batch(self):
        assert not MicroBatcher.batchable(_pending("execute"))


class TestCollect:
    def _queue(self, items) -> AdmissionQueue:
        queue = AdmissionQueue(maxsize=64)
        for item in items:
            queue.put(item)
        return queue

    def test_non_batchable_first_short_circuits(self):
        batcher = MicroBatcher(max_batch=4, deadline_seconds=0.0,
                               clock=FakeClock())
        queue = self._queue([_pending("ask")])
        first = _pending("execute")
        batch, passthrough = batcher.collect(queue, first)
        assert batch == [] and passthrough == [first]
        assert len(queue) == 1  # nothing else was popped

    def test_flush_on_size(self):
        batcher = MicroBatcher(max_batch=3, deadline_seconds=0.0,
                               clock=FakeClock())
        queued = [_pending("ask") for _ in range(5)]
        queue = self._queue(queued)
        first = _pending("propose")
        batch, passthrough = batcher.collect(queue, first)
        assert batch == [first] + queued[:2]  # capped at max_batch
        assert passthrough == []
        assert len(queue) == 3

    def test_zero_deadline_coalesces_already_queued_only(self):
        batcher = MicroBatcher(max_batch=8, deadline_seconds=0.0,
                               clock=FakeClock())
        queued = [_pending("ask"), _pending("propose")]
        queue = self._queue(queued)
        batch, passthrough = batcher.collect(queue, _pending("ask"))
        assert len(batch) == 3 and passthrough == []
        assert len(queue) == 0

    def test_deadline_expiry_returns_partial_batch(self):
        # real clock: the empty queue forces the deadline to lapse
        batcher = MicroBatcher(max_batch=8, deadline_seconds=0.01)
        queue = AdmissionQueue(maxsize=8)
        first = _pending("propose")
        batch, passthrough = batcher.collect(queue, first)
        assert batch == [first] and passthrough == []

    def test_non_batchable_items_pass_through(self):
        batcher = MicroBatcher(max_batch=8, deadline_seconds=0.0,
                               clock=FakeClock())
        session = _pending("ask", session_id="dialog-1")
        tail = _pending("propose")
        queue = self._queue([session, tail])
        batch, passthrough = batcher.collect(queue, _pending("ask"))
        assert session in passthrough
        assert session not in batch
        assert tail in batch

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0, deadline_seconds=0.0)
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=1, deadline_seconds=-0.1)


class TestServerMicroBatching:
    def _run(self, chatgraph, workload, **config):
        server = ChatGraphServer(
            chatgraph, ServeConfig(workers=1, enable_caches=False,
                                   queue_depth=64, **config))
        with server:
            pending = [server.submit(request) for request in workload]
            responses = [item.result(timeout=120.0) for item in pending]
        return server, responses

    def test_batched_responses_identical_to_scalar(self, serve_chatgraph):
        workload = bench_workload(10, n_graphs=3)
        workload += [ServeRequest(op="ask", text=r.text, graph=r.graph)
                     for r in workload[:4]]
        _, serial = self._run(serve_chatgraph, workload)
        server, batched = self._run(serve_chatgraph, workload,
                                    microbatch_size=8,
                                    microbatch_deadline_seconds=0.05)
        assert all(r.ok for r in serial)
        assert all(r.ok for r in batched)
        for left, right in zip(serial, batched):
            assert left.seed == right.seed
            if left.op == "propose":
                assert left.value.chain.api_names() == \
                    right.value.chain.api_names()
                assert left.value.retrieved == right.value.retrieved
                assert left.value.intent == right.value.intent
            else:
                assert left.value.answer == right.value.answer
        # a single worker over a pre-filled queue must have coalesced
        counters = server.stats()["counters"]
        assert counters.get("microbatched", 0) >= 2
        histogram = server.metrics.histogram("microbatch_size")
        assert histogram.count >= 1
        assert histogram.max >= 2

    def test_microbatching_off_by_default(self, serve_chatgraph):
        """"Off" is a flush size of one: the batcher is always there,
        but a pre-filled queue is still served one request per pass —
        nothing counts as micro-batched and no ``microbatch`` span
        opens."""
        workload = bench_workload(4, n_graphs=2)
        server, responses = self._run(
            serve_chatgraph, workload,
            obs=ObsConfig(enable_tracing=True))
        assert all(r.ok for r in responses)
        assert ServeConfig().microbatch_size == 0
        assert server.backend.batcher.max_batch == 1
        assert server.stats()["counters"].get("microbatched", 0) == 0
        assert server.metrics.histogram("microbatch_size").count == 0
        names = [span.name for span in server.tracer.finished_spans()]
        assert "microbatch" not in names
        assert sum(n.startswith("request:") for n in names) == \
            len(workload)

    def test_session_requests_bypass_batching(self, serve_chatgraph):
        graph = knowledge_graph(24, 80, seed=3)
        workload = bench_workload(6, n_graphs=2)
        workload.insert(3, ServeRequest(op="ask",
                                        text="how many nodes are there",
                                        graph=graph, session_id="dlg-1"))
        server, responses = self._run(serve_chatgraph, workload,
                                      microbatch_size=8,
                                      microbatch_deadline_seconds=0.05)
        assert all(r.ok for r in responses)
        session_response = responses[3]
        assert session_response.op == "ask"
        assert session_response.value.answer
        # the session request was served, but never as part of a batch:
        # microbatched counts only the stateless requests
        counters = server.stats()["counters"]
        assert counters.get("microbatched", 0) <= len(workload) - 1
        assert server.sessions.stats()["created"] >= 1


class ScriptedQueue:
    """AdmissionQueue stand-in driven by a fake clock.

    Each ``get`` pops the next scripted ``(advance, item)`` step and
    moves the clock forward by ``advance`` (capped at the requested
    timeout when the step models a timeout/raced wakeup, i.e. the item
    is None).  An exhausted script behaves like an empty queue: every
    further ``get`` sleeps out its full timeout and returns None.
    """

    closed = False

    def __init__(self, clock: FakeClock, script) -> None:
        self.clock = clock
        self.script = list(script)
        self.gets = 0

    def __len__(self) -> int:
        return sum(1 for _, item in self.script if item is not None)

    def get(self, timeout: float):
        self.gets += 1
        if not self.script:
            self.clock.now += timeout
            return None
        advance, item = self.script.pop(0)
        self.clock.now += advance if item is not None \
            else min(advance, timeout)
        return item


class TestQueueDelayAccounting:
    """``batch_wait_seconds`` must be each member's actual coalescing
    wait — not 0, not the full deadline — and the collect loop must
    terminate even when the clock never visibly advances."""

    def test_size_triggered_flush_stamps_per_member_waits(self):
        clock = FakeClock(start=100.0)
        batcher = MicroBatcher(max_batch=3, deadline_seconds=10.0,
                               clock=clock)
        first, second, third = (_pending("propose"), _pending("ask"),
                                _pending("ask"))
        queue = ScriptedQueue(clock, [(0.5, second), (0.5, third)])
        batch, passthrough = batcher.collect(queue, first)
        assert batch == [first, second, third] and passthrough == []
        # the flush happened 1.0s after ``first`` joined: its wait is
        # the real coalescing time, not 0 and not the 10s deadline
        assert first.batch_wait_seconds == pytest.approx(1.0)
        assert second.batch_wait_seconds == pytest.approx(0.5)
        # the size-trigger member never waited
        assert third.batch_wait_seconds == pytest.approx(0.0)

    def test_deadline_flush_stamps_full_wait_for_first_only(self):
        clock = FakeClock(start=100.0)
        batcher = MicroBatcher(max_batch=8, deadline_seconds=2.0,
                               clock=clock)
        first, second = _pending("propose"), _pending("ask")
        queue = ScriptedQueue(clock, [(0.5, second), (5.0, None)])
        batch, passthrough = batcher.collect(queue, first)
        assert batch == [first, second] and passthrough == []
        assert first.batch_wait_seconds == pytest.approx(2.0)
        assert second.batch_wait_seconds == pytest.approx(1.5)

    def test_frozen_clock_terminates_without_spinning(self):
        """A clock that never advances (coarse clock, sub-resolution
        waits) must not make collect spin hot forever: the deadline is
        clamped after the first unmeasurable wait and the loop drains
        only what is already queued."""
        clock = FakeClock(start=100.0)
        batcher = MicroBatcher(max_batch=8, deadline_seconds=5.0,
                               clock=clock)
        first = _pending("propose")
        queue = ScriptedQueue(clock, [(0.0, None), (0.0, None)])
        batch, passthrough = batcher.collect(queue, first)
        assert batch == [first] and passthrough == []
        # one unmeasurable wait clamps the deadline; the loop must not
        # have burned through the scripted steps in a hot spin
        assert queue.gets <= 2

    def test_server_records_coalescing_wait_not_admission_wait(
            self, serve_chatgraph):
        """The regression this PR fixes: ``microbatch_queue_delay``
        used to record the full admission-queue wait, so a later
        batch's members reported the previous batch's ~0.3s service
        time instead of their own coalescing wait (bounded by the
        0.02s flush deadline)."""
        workload = bench_workload(12, n_graphs=2)
        server = ChatGraphServer(
            serve_chatgraph,
            ServeConfig(workers=1, enable_caches=False, queue_depth=64,
                        microbatch_size=6,
                        microbatch_deadline_seconds=0.02))
        with slow_chatgraph(serve_chatgraph, 0.3), server:
            pending = [server.submit(request) for request in workload]
            responses = [item.result(timeout=120.0) for item in pending]
        assert all(r.ok for r in responses)
        counters = server.stats()["counters"]
        assert counters.get("microbatched", 0) >= len(workload) - 1
        delay = server.metrics.histogram("microbatch_queue_delay")
        assert delay.count >= counters["microbatched"]
        # every wait is a coalescing wait: well under the 0.3s injected
        # delay each batch spends in service
        assert delay.max < 0.2
