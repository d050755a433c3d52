"""Serving metrics: counters and fixed-bucket latency histograms.

The runtime records one histogram per stage — ``queued`` (admission to
dispatch), one per pipeline stage, ``execute`` and end-to-end
``total`` — plus plain counters (admitted/rejected/failed, fallbacks).
The pipeline-stage histogram names are *derived* from the stage graph
(each :class:`~repro.core.pipeline.PipelineResult` carries timings
keyed by the graph's observed stage names; the server also snapshots
``pipeline.graph.observed_stage_names``), so adding a stage to the
graph grows the histograms without touching this module.  Everything is
cheap enough to stay on by default; ``ServerStats.snapshot()`` renders
a plain-dict view for logging and tests.

The histogram primitive is :class:`repro.obs.metrics.Histogram`.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Any

from ..obs.metrics import Histogram


#: Executor event kinds mirrored 1:1 into server counters (the
#: robustness layer's recovery signals; see repro.apis.executor).
ROBUSTNESS_EVENT_COUNTERS: dict[str, str] = {
    "step_retried": "step_retried",
    "step_timed_out": "step_timed_out",
    "breaker_opened": "breaker_opened",
    "step_failed": "step_failed",
}


class ServerStats:
    """Counters + per-stage histograms with an atomic-enough snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Counter = Counter()
        self._histograms: dict[str, Histogram] = {}

    def on_execution_event(self, event: Any) -> None:
        """Executor listener: count retry/timeout/breaker events.

        Attach with ``chatgraph.executor.add_listener(
        stats.on_execution_event)`` — every chain the server runs then
        surfaces its recovery activity in :meth:`snapshot`.
        """
        name = ROBUSTNESS_EVENT_COUNTERS.get(getattr(event, "kind", ""))
        if name is not None:
            self.incr(name)

    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] += amount

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters[name]

    def observe(self, stage: str, seconds: float) -> None:
        # fast path without the stats lock: dict reads are atomic under
        # the GIL and a histogram, once created, is never replaced, so
        # the common case contends only on that histogram's own lock —
        # the stats lock is taken solely to create a missing histogram
        histogram = self._histograms.get(stage)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.get(stage)
                if histogram is None:
                    histogram = self._histograms[stage] = \
                        Histogram()
        histogram.observe(seconds)

    def histogram(self, stage: str) -> Histogram | None:
        return self._histograms.get(stage)

    def snapshot(self) -> dict[str, Any]:
        # copy the tables under the lock, render outside it: a summary
        # is each histogram's own single-lock snapshot (see
        # obs.metrics.Histogram.summary), so taking a server snapshot
        # never blocks workers mid-observe on the stats lock
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        return {
            "counters": counters,
            "latency": {stage: hist.summary()
                        for stage, hist in sorted(histograms.items())},
        }
