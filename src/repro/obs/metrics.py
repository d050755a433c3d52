"""Counters and fixed-bucket histograms for the pipeline.

:class:`Histogram` is the latency histogram the serve runtime has used
since PR 1 (observability owns the primitive).  On top of it
:class:`MetricsRegistry` holds named counters and histograms behind one
lock-per-metric facade — the only counter/histogram store a serving
process keeps — and speaks the executor's listener protocol: attach
:meth:`MetricsRegistry.on_execution_event` to a
:class:`~repro.apis.executor.ChainExecutor` and every retry, timeout,
breaker trip, and step outcome lands in a counter.  Point-in-time
values (queue size, hit rates) are not stored here: they are derived
from the stats snapshot (see :mod:`repro.runtime.snapshot`).
"""

from __future__ import annotations

import bisect
import threading
from typing import Any

#: Geometric bucket upper bounds (seconds): 50us .. ~52s, then +inf.
_BUCKET_BOUNDS: tuple[float, ...] = tuple(
    5e-05 * (2.0 ** i) for i in range(21))


class Histogram:
    """Fixed-bucket histogram with quantile estimates.

    Quantiles are read from bucket upper bounds, so they are estimates
    with bounded relative error (each bucket spans a factor of two);
    ``min``/``max``/``mean`` are exact.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = [0] * (len(_BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        index = bisect.bisect_left(_BUCKET_BOUNDS, seconds)
        with self._lock:
            self._counts[index] += 1
            self.count += 1
            self.total += seconds
            if seconds < self.min:
                self.min = seconds
            if seconds > self.max:
                self.max = seconds

    @staticmethod
    def _quantile_from(counts: list[int], count: int, maximum: float,
                       q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if count == 0:
            return 0.0
        target = q * count
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                if index >= len(_BUCKET_BOUNDS):
                    return maximum
                return min(_BUCKET_BOUNDS[index], maximum)
        return maximum

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile in seconds (0 when empty)."""
        with self._lock:
            return self._quantile_from(self._counts, self.count,
                                       self.max, q)

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        """One self-consistent snapshot of every statistic.

        All state is copied under a single lock acquisition (one
        :meth:`dump`) and the quantiles are computed from the copy, so a
        summary taken while workers observe concurrently can never mix
        statistics from two different points in time.  Quantile math
        runs outside the lock: observers are never blocked on it.
        """
        return self.merged_summary([self.dump()])

    def dump(self) -> dict[str, Any]:
        """Raw, lossless state for cross-process merging.

        Unlike :meth:`summary` (which collapses buckets into quantile
        estimates), a dump carries the bucket counts themselves, so
        dumps from many processes can be summed and the merged quantile
        estimate equals what one histogram observing everything would
        have reported.  JSON-safe: ``min`` is ``None`` when empty.
        """
        with self._lock:
            return {
                "counts": list(self._counts),
                "count": self.count,
                "total": self.total,
                "min": None if self.count == 0 else self.min,
                "max": self.max,
            }

    @staticmethod
    def merged_summary(dumps: list[dict[str, Any]]) -> dict[str, float]:
        """The :meth:`summary` of the union of the dumped histograms."""
        counts = [0] * (len(_BUCKET_BOUNDS) + 1)
        count = 0
        total = 0.0
        minimum = float("inf")
        maximum = 0.0
        for dump in dumps:
            for index, bucket in enumerate(dump["counts"]):
                counts[index] += bucket
            count += dump["count"]
            total += dump["total"]
            if dump["min"] is not None and dump["min"] < minimum:
                minimum = dump["min"]
            if dump["max"] > maximum:
                maximum = dump["max"]
        return {
            "count": count,
            "mean": total / count if count else 0.0,
            "p50": Histogram._quantile_from(counts, count, maximum, 0.50),
            "p95": Histogram._quantile_from(counts, count, maximum, 0.95),
            "p99": Histogram._quantile_from(counts, count, maximum, 0.99),
            "min": 0.0 if count == 0 else minimum,
            "max": maximum,
        }


class CounterMetric:
    """A monotonically increasing counter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def incr(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


#: Executor event kinds surfaced as ``events_<kind>`` counters.
OBSERVED_EVENT_KINDS = (
    "chain_started", "chain_finished", "chain_failed",
    "step_started", "step_finished", "step_failed",
    "step_retried", "step_timed_out", "breaker_opened",
)

#: The recovery signals among them, also counted under the bare kind —
#: the name the SLO gates, the ``chaos`` CLI and ``stats()`` readers use.
RECOVERY_EVENT_KINDS = ("step_retried", "step_timed_out",
                        "breaker_opened", "step_failed")


class MetricsRegistry:
    """Named counters/histograms created lazily on first use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, CounterMetric] = {}
        self._histograms: dict[str, Histogram] = {}

    def _series(self, table: dict[str, Any], name: str, kind: type) -> Any:
        # fast path without the registry lock: dict reads are atomic
        # under the GIL and a series, once created, is never replaced,
        # so the common case contends only on that series' own lock —
        # the registry lock is taken solely to create a missing series
        metric = table.get(name)
        if metric is None:
            with self._lock:
                metric = table.get(name)
                if metric is None:
                    metric = table[name] = kind()
        return metric

    def counter(self, name: str) -> CounterMetric:
        return self._series(self._counters, name, CounterMetric)

    def histogram(self, name: str) -> Histogram:
        return self._series(self._histograms, name, Histogram)

    def incr(self, name: str, amount: int = 1) -> None:
        self.counter(name).incr(amount)

    def observe(self, name: str, seconds: float) -> None:
        self.histogram(name).observe(seconds)

    def on_execution_event(self, event: Any) -> None:
        """Count one executor event (attach as a listener)."""
        kind = getattr(event, "kind", "")
        if kind in OBSERVED_EVENT_KINDS:
            self.incr(f"events_{kind}")
            if kind in RECOVERY_EVENT_KINDS:
                self.incr(kind)

    def dump(self) -> dict[str, Any]:
        """Raw (lossless, JSON-safe) state for cross-process merging.

        Counters dump their values; histograms dump bucket counts (see
        :meth:`Histogram.dump`).  Feed a list of dumps — e.g. one per
        shard worker — to :func:`merge_metrics_dumps` for one fleet-wide
        snapshot.
        """
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        return {
            "counters": {name: metric.value
                         for name, metric in sorted(counters.items())},
            "histograms": {name: metric.dump()
                           for name, metric in sorted(histograms.items())},
        }

    def snapshot(self) -> dict[str, Any]:
        """Counter values and histogram summaries, sorted by name."""
        return merge_metrics_dumps([self.dump()])


def merge_metrics_dumps(dumps: list[dict[str, Any]]) -> dict[str, Any]:
    """Merge :meth:`MetricsRegistry.dump` outputs into one snapshot.

    Counters sum; histograms merge at the bucket level, so the returned
    quantile estimates match a single registry that observed every
    event.  The output has :meth:`MetricsRegistry.snapshot` shape.
    """
    counters: dict[str, int] = {}
    histogram_dumps: dict[str, list[dict[str, Any]]] = {}
    for dump in dumps:
        for name, value in dump.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, hist in dump.get("histograms", {}).items():
            histogram_dumps.setdefault(name, []).append(hist)
    return {
        "counters": dict(sorted(counters.items())),
        "histograms": {name: Histogram.merged_summary(hists)
                       for name, hists in sorted(histogram_dumps.items())},
    }
