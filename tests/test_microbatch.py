"""Tests for request micro-batching (repro.serve.microbatch + engine).

The batcher must only coalesce ``propose``/``ask`` requests (stateless
ones and turns of distinct sessions), flush on size or deadline, and —
end to end — a micro-batched server must return bit-identical responses
to the scalar path while recording the ``microbatched`` counter and
``microbatch_size`` histogram.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import ChatGraph, ChatGraphServer, ServeConfig, ServeRequest
from repro.core.session import ChatSession
from repro.errors import ServeError
from repro.graphs import knowledge_graph
from repro.loadgen import bench_workload
from repro.serve import AdmissionQueue, MicroBatcher
from repro.serve.engine import PendingRequest
from repro.shard.protocol import dumps_canonical, value_to_wire

from .serve_helpers import first_pass_held


class FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


def _pending(op: str, session_id: str | None = None) -> PendingRequest:
    request = ServeRequest(op=op, text="t", session_id=session_id)
    return PendingRequest(request, request_id=0, enqueued_at=0.0)


def _reply_bytes(response) -> bytes:
    assert response.ok, response.error
    return dumps_canonical(value_to_wire(response.op, response.value))


def _behind_one(chatgraph, head, rest, hold_seconds=0.0, **config):
    """One worker serves ``head`` alone and holds its pass until every
    request of ``rest`` is queued behind it (and ``hold_seconds`` more),
    so ``rest`` reaches the batcher already queued."""
    server = ChatGraphServer(
        chatgraph, ServeConfig(workers=1, enable_caches=False,
                               queue_depth=64, **config))
    with server, first_pass_held(chatgraph) as (started, released):
        pending = [server.submit(head)]
        assert started.wait(60.0)
        pending += [server.submit(request) for request in rest]
        time.sleep(hold_seconds)
        released.set()
        responses = [item.result(timeout=120.0) for item in pending]
    return server, responses


@pytest.fixture(scope="module")
def serve_chatgraph():
    return ChatGraph.pretrained(corpus_size=300, seed=0)


class TestBatchable:
    def test_stateless_propose_and_ask_batch(self):
        assert MicroBatcher.batchable(_pending("propose"))
        assert MicroBatcher.batchable(_pending("ask"))

    def test_session_turns_batch(self):
        # a session turn is an ``ask`` with a session_id (admission
        # refuses a session-bound ``propose``)
        assert MicroBatcher.batchable(_pending("ask", "s1"))

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
        """An ``execute``, and every further turn of a session already
        in the flush, pass through in the order they were popped."""
        batcher = MicroBatcher(max_batch=8, deadline_seconds=0.0,
                               clock=FakeClock())
        first = _pending("ask", session_id="dialog-1")
        execute = _pending("execute")
        again = _pending("ask", session_id="dialog-1")
        other = _pending("ask", session_id="dialog-2")
        third = _pending("ask", session_id="dialog-1")
        tail = _pending("propose")
        queue = self._queue([execute, again, other, third, tail])
        batch, passthrough = batcher.collect(queue, first)
        assert batch == [first, other, tail]
        assert passthrough == [execute, again, third]

    def test_distinct_sessions_share_a_flush(self):
        batcher = MicroBatcher(max_batch=3, deadline_seconds=0.0,
                               clock=FakeClock())
        turns = [_pending("ask", session_id=f"dialog-{index}")
                 for index in range(4)]
        queue = self._queue(turns[1:])
        batch, passthrough = batcher.collect(queue, turns[0])
        assert batch == turns[:3] and passthrough == []
        assert len(queue) == 1

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
        _, serial = self._run(serve_chatgraph, workload, microbatch_size=0)
        server, batched = _behind_one(serve_chatgraph, workload[0],
                                      workload[1:], microbatch_size=8)
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
        # the 13 requests queued behind the held head flush as 8 + 5
        counters = server.stats()["counters"]
        assert counters.get("microbatched", 0) == len(workload) - 1
        histogram = server.metrics.histogram("microbatch_size")
        assert (histogram.count, histogram.max) == (2, 8.0)

    def test_microbatching_on_by_default(self, serve_chatgraph):
        """The default coalesces, without waiting: a flush of up to 8
        takes only what is already queued.  Requests held behind a busy
        worker share its next pass, inside one ``microbatch`` span."""
        defaults = ServeConfig()
        assert defaults.microbatch_size == 8
        assert defaults.microbatch_deadline_seconds == 0.0
        workload = bench_workload(5, n_graphs=2)
        server, responses = _behind_one(
            serve_chatgraph, workload[0], workload[1:],
            enable_tracing=True)
        assert all(r.ok for r in responses)
        assert server.backend.batcher.max_batch == 8
        assert server.backend.batcher.deadline_seconds == 0.0
        assert server.stats()["counters"].get("microbatched", 0) == 4
        histogram = server.metrics.histogram("microbatch_size")
        assert (histogram.count, histogram.max) == (1, 4.0)
        names = [span.name for span in server.tracer.finished_spans()]
        assert names.count("microbatch") == 1
        assert sum(n.startswith("request:") for n in names) == \
            len(workload)

    def test_session_turns_share_a_flush(self, serve_chatgraph):
        """Turns of three sessions queued behind a busy worker share its
        next pass, and each reply is byte-equal to the turn served
        alone."""
        head = bench_workload(1, n_graphs=1)[0]
        turns = [ServeRequest(op="ask", text=text,
                              graph=knowledge_graph(24, 80, seed=3 + index),
                              session_id=f"dlg-{index}")
                 for index, text in enumerate((
                     "how many nodes are there",
                     "compute the graph density",
                     "write a brief report for G"))]
        server, responses = _behind_one(serve_chatgraph, head, turns)
        _, alone = self._run(serve_chatgraph, [head] + turns,
                             microbatch_size=0)
        assert [_reply_bytes(r) for r in responses] == \
            [_reply_bytes(r) for r in alone]
        assert server.stats()["counters"].get("microbatched", 0) == 3
        assert server.sessions.stats()["created"] == 3

    def test_turns_of_one_session_never_share_a_flush(self,
                                                      serve_chatgraph):
        """Behind a busy worker, one session's second and third turns
        pass through the flush its first turn joins; the worker serves
        them after it, in queue order."""
        head = bench_workload(1, n_graphs=1)[0]
        texts = ("how many nodes are there", "compute the graph density",
                 "write a brief report for G")
        rest = [
            ServeRequest(op="ask", text=texts[0],
                         graph=knowledge_graph(24, 80, seed=3),
                         session_id="dlg-1"),
            ServeRequest(op="ask", text=texts[1], session_id="dlg-1"),
            ServeRequest(op="ask", text=texts[0],
                         graph=knowledge_graph(24, 80, seed=4),
                         session_id="dlg-2"),
            ServeRequest(op="ask", text=texts[2], session_id="dlg-1"),
        ]
        server, responses = _behind_one(serve_chatgraph, head, rest)
        _, alone = self._run(serve_chatgraph, [head] + rest,
                             microbatch_size=0)
        assert [_reply_bytes(r) for r in responses] == \
            [_reply_bytes(r) for r in alone]
        # only dlg-1's first turn and dlg-2's turn shared a pass
        assert server.stats()["counters"].get("microbatched", 0) == 2
        history = server.sessions.get("dlg-1").session.history
        assert [turn.text for turn in history
                if turn.role == "user"] == list(texts)

    def test_a_turn_failing_before_the_pass_fails_alone(
            self, serve_chatgraph, monkeypatch):
        """A session turn whose preparation raises after its lock was
        taken fails alone and releases the lock: its batchmates are
        served, and so is its session's next turn."""
        real = ChatSession.build_prompt

        def build_prompt(session, text):
            if text == "boom":
                raise ServeError("prompt refused")
            return real(session, text)

        monkeypatch.setattr(ChatSession, "build_prompt", build_prompt)
        graph = knowledge_graph(24, 80, seed=3)
        head = bench_workload(1, n_graphs=1)[0]
        rest = [
            ServeRequest(op="ask", text="boom", graph=graph,
                         session_id="dlg-1"),
            ServeRequest(op="ask", text="how many nodes are there",
                         graph=graph, session_id="dlg-2"),
            ServeRequest(op="ask", text="compute the graph density",
                         session_id="dlg-1"),
        ]
        server, responses = _behind_one(serve_chatgraph, head, rest)
        assert [r.ok for r in responses] == [True, False, True, True]
        assert responses[1].error == "prompt refused"
        assert server.stats()["counters"].get("microbatched", 0) == 2

    def test_overlapping_session_flushes_do_not_deadlock(
            self, serve_chatgraph):
        """Two workers serve flushes holding the same two sessions in
        opposite arrival order at once.  Each takes its members' locks
        in session-id order, so neither waits on the other for ever; a
        slow session lookup widens the window a lock cycle would need.
        The joins are bounded, so a deadlock fails instead of hanging."""
        graph = knowledge_graph(24, 80, seed=3)

        def turn(session_id):
            request = ServeRequest(op="ask", text="how many nodes are there",
                                   graph=graph, session_id=session_id)
            return PendingRequest(request, request_id=0,
                                  enqueued_at=time.perf_counter())

        flushes = [[turn("dlg-a"), turn("dlg-b")],
                   [turn("dlg-b"), turn("dlg-a")]]
        server = ChatGraphServer(serve_chatgraph,
                                 ServeConfig(workers=2, enable_caches=False))
        with server:
            backend = server.backend
            lookup = backend.sessions.get_or_create

            def slow_lookup(session_id):
                time.sleep(0.05)
                return lookup(session_id)

            backend.sessions.get_or_create = slow_lookup
            workers = [threading.Thread(target=backend._serve,
                                        args=(flush, f"worker-{index}"),
                                        daemon=True)
                       for index, flush in enumerate(flushes)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30.0)
            assert not any(worker.is_alive() for worker in workers), \
                "two flushes sharing sessions deadlocked"
        responses = [item.result(timeout=1.0)
                     for flush in flushes for item in flush]
        assert all(r.ok for r in responses)
        for session_id in ("dlg-a", "dlg-b"):
            history = server.sessions.get(session_id).session.history
            assert [t.role for t in history].count("user") == 2


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
        """``microbatch_queue_delay`` records each member's coalescing
        wait, not its admission-queue wait: members queued behind a
        worker held for 0.3s report waits well under that hold."""
        workload = bench_workload(12, n_graphs=2)
        server, responses = _behind_one(serve_chatgraph, workload[0],
                                        workload[1:], hold_seconds=0.3,
                                        microbatch_size=6)
        assert all(r.ok for r in responses)
        counters = server.stats()["counters"]
        assert counters.get("microbatched", 0) == len(workload) - 1
        delay = server.metrics.histogram("microbatch_queue_delay")
        assert delay.count == counters["microbatched"]
        # each member waited out the hold in the admission queue, and
        # none of that wait is reported as coalescing
        assert server.metrics.histogram("queued").max >= 0.3
        assert delay.max < 0.2
