"""Request micro-batching: coalesce queued work into shared batches.

A worker that pops one request from the admission queue hands it to the
:class:`MicroBatcher`, which greedily gathers more *batchable* requests
(stateless ``propose``/``ask``) until either the batch is full or the
flush deadline expires.  The whole batch then makes one pass through
the stage graph a lone request goes through (see
:mod:`repro.core.stages`) — one embedding call, one ANN search, one
decode matmul per step — instead of N passes of one.

Session turns and ``execute`` requests never batch: sessions serialize
on their own locks and executions carry per-request state, so they pass
through (the ``passthrough`` list) and are served as batches of one.

The deadline is the tail-latency knob: the first request of a partial
batch waits at most ``deadline_seconds`` for company.  With a deadline
of zero the batcher still coalesces whatever is *already* queued — the
no-added-latency operating point.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from .admission import AdmissionQueue

Clock = Callable[[], float]


class MicroBatcher:
    """Gathers compatible queued requests into bounded batches."""

    def __init__(self, max_batch: int, deadline_seconds: float,
                 clock: Clock = time.monotonic) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if deadline_seconds < 0:
            raise ValueError("deadline_seconds must be >= 0")
        self.max_batch = max_batch
        self.deadline_seconds = deadline_seconds
        self._clock = clock

    @staticmethod
    def batchable(item: Any) -> bool:
        """True for a stateless ``propose``/``ask``: the requests one
        pass through the stage graph can serve together."""
        request = item.request
        return (request.op in ("propose", "ask")
                and request.session_id is None)

    def collect(self, queue: AdmissionQueue,
                first: Any) -> tuple[list[Any], list[Any]]:
        """Grow a batch around ``first``; returns (batch, passthrough).

        ``batch`` holds up to ``max_batch`` batchable requests;
        ``passthrough`` holds everything popped along the way that must
        be served individually.  A non-batchable ``first`` short-
        circuits: it is returned alone without waiting.
        """
        if not self.batchable(first):
            return [], [first]
        start = self._clock()
        batch = [first]
        join_times = [start]
        passthrough: list[Any] = []
        deadline = start + self.deadline_seconds
        while len(batch) < self.max_batch:
            before = self._clock()
            remaining = deadline - before
            if remaining <= 0 and len(queue) == 0:
                break
            item = queue.get(timeout=max(0.0, remaining))
            if item is None:
                if queue.closed or remaining <= 0:
                    break
                # distinguish a raced wakeup (another consumer stole
                # the notified item; keep waiting out the remainder)
                # from an elapsed or unmeasurable wait: on a coarse or
                # fake clock the elapsed time reads 0 and ``remaining``
                # would stay positive forever, so clamp the deadline to
                # "now" — the next iteration then drains only what is
                # already queued instead of spinning hot
                waited = self._clock() - before
                if waited <= 0.0 or waited >= remaining:
                    deadline = min(deadline, self._clock())
                continue
            if self.batchable(item):
                batch.append(item)
                join_times.append(self._clock())
            else:
                passthrough.append(item)
        # stamp each member's coalescing wait (flush minus join) with
        # the batcher's own clock: the first request of a deadline
        # flush waited ~deadline_seconds, the member that triggered a
        # size flush ~0 — this is what microbatch_queue_delay reports,
        # distinct from the admission-queue wait
        flush = self._clock()
        for item, joined in zip(batch, join_times):
            item.batch_wait_seconds = flush - joined
        return batch, passthrough
