"""Metrics registry, histogram quantiles, and renderers."""

import json
import sys
import threading
from dataclasses import dataclass

import pytest
from hypothesis import example, given, strategies as st

from repro.obs import (
    CounterMetric,
    Histogram,
    MetricsRegistry,
    merge_metrics_dumps,
    render_metrics_markdown,
)
from repro.obs.metrics import OBSERVED_EVENT_KINDS, RECOVERY_EVENT_KINDS


@dataclass
class FakeEvent:
    kind: str


class TestCounterAndGauge:
    def test_counter_accumulates(self):
        counter = CounterMetric()
        counter.incr()
        counter.incr(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            CounterMetric().incr(-1)


class TestHistogram:
    def test_exact_count_mean_min_max(self):
        hist = Histogram()
        for value in (0.001, 0.002, 0.003):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["mean"] == pytest.approx(0.002)
        assert summary["min"] == pytest.approx(0.001)
        assert summary["max"] == pytest.approx(0.003)

    def test_quantiles_ordered_and_bounded(self):
        hist = Histogram()
        for index in range(200):
            hist.observe(0.0001 * (index + 1))
        summary = hist.summary()
        assert summary["p50"] <= summary["p95"] <= summary["p99"] \
            <= summary["max"]
        assert summary["p50"] > 0

    def test_quantile_bucket_error_bounded(self):
        """Bucket bounds are x2 apart: estimate within 2x of truth."""
        hist = Histogram()
        for __ in range(1000):
            hist.observe(0.010)
        p50 = hist.quantile(0.5)
        assert 0.010 <= p50 <= 0.020

    def test_empty_and_invalid_quantile(self):
        hist = Histogram()
        assert hist.quantile(0.5) == 0.0
        assert hist.summary()["min"] == 0.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)


class TestMetricsRegistry:
    def test_handles_are_stable(self):
        metrics = MetricsRegistry()
        assert metrics.counter("a") is metrics.counter("a")
        assert metrics.histogram("h") is metrics.histogram("h")

    def test_shorthands_and_snapshot(self):
        metrics = MetricsRegistry()
        metrics.incr("requests", 2)
        metrics.observe("latency", 0.01)
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {"requests": 2}
        assert sorted(snapshot) == ["counters", "histograms"]
        assert snapshot["histograms"]["latency"]["count"] == 1

    def test_snapshot_sorted(self):
        metrics = MetricsRegistry()
        for name in ("zeta", "alpha", "mid"):
            metrics.incr(name)
        assert list(metrics.snapshot()["counters"]) == \
            ["alpha", "mid", "zeta"]

    def test_racing_first_writes_land_in_one_series(self):
        """A series is created on the miss of a lock-free read: threads
        racing to create the same fresh name must all write the one
        series that survives, or an update is lost."""
        metrics = MetricsRegistry()
        n_threads, rounds = 16, 200
        barrier = threading.Barrier(n_threads)

        def hammer():
            barrier.wait(timeout=10.0)
            for index in range(rounds):
                metrics.incr(f"c{index}")
                metrics.observe(f"h{index}", 0.001)

        threads = [threading.Thread(target=hammer)
                   for __ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {
            f"c{index}": n_threads for index in range(rounds)}
        assert {name: summary["count"] for name, summary
                in snapshot["histograms"].items()} == {
            f"h{index}": n_threads for index in range(rounds)}

    def test_counts_all_observed_event_kinds(self):
        metrics = MetricsRegistry()
        for kind in OBSERVED_EVENT_KINDS:
            metrics.on_execution_event(FakeEvent(kind))
        counters = metrics.snapshot()["counters"]
        # every kind under events_<kind>; the recovery kinds also under
        # the bare name the SLO gates and the chaos CLI read
        assert counters == {
            **{f"events_{kind}": 1 for kind in OBSERVED_EVENT_KINDS},
            **{kind: 1 for kind in RECOVERY_EVENT_KINDS}}

    def test_ignores_unknown_event_kinds(self):
        metrics = MetricsRegistry()
        metrics.on_execution_event(FakeEvent("unrelated"))
        metrics.on_execution_event(object())  # no .kind at all
        assert metrics.snapshot()["counters"] == {}

    def test_recovery_kinds_are_observed(self):
        """The robustness events of PR 2 all land in counters."""
        for kind in ("step_retried", "step_timed_out", "breaker_opened"):
            assert kind in OBSERVED_EVENT_KINDS
        assert set(RECOVERY_EVENT_KINDS) <= set(OBSERVED_EVENT_KINDS)


#: Seconds that are multiples of 2**-20 (0 .. 64 s: every bucket, the
#: +inf one included), so a histogram's running total is exact in any
#: summation order and the merged mean can be compared with ``==``.
_SECONDS = st.integers(0, 2 ** 26).map(lambda n: n / 2 ** 20)
_NAMES = st.sampled_from(["a", "b", "c"])
_WRITES = st.one_of(
    st.tuples(st.just("incr"), _NAMES, st.integers(0, 5)),
    st.tuples(st.just("observe"), _NAMES, _SECONDS))


class TestDumpsMergeLosslessly:
    @given(k=st.integers(1, 4),
           stream=st.lists(st.tuples(st.integers(0, 3), _WRITES),
                           max_size=60))
    @example(k=2, stream=[(0, ("incr", "requests", 3)),
                          (1, ("incr", "requests", 4)),
                          (1, ("incr", "only_b", 1)),
                          (0, ("observe", "latency", 0.01)),
                          (1, ("observe", "latency", 0.2))])
    def test_partitioned_stream_merges_to_the_single_registry(
            self, k, stream):
        """A write stream split over k registries, dumped (through JSON,
        as a shard pipe carries it) and merged, reads exactly like one
        registry that saw every write."""
        parts = [MetricsRegistry() for __ in range(k)]
        whole = MetricsRegistry()
        for shard, (write, name, value) in stream:
            for registry in (parts[shard % k], whole):
                getattr(registry, write)(name, value)
        merged = merge_metrics_dumps(
            [json.loads(json.dumps(part.dump())) for part in parts])
        assert merged == whole.snapshot()
        for summary in merged["histograms"].values():
            assert sorted(summary) == ["count", "max", "mean", "min",
                                       "p50", "p95", "p99"]


class TestMarkdownRendering:
    def test_renders_every_section(self):
        snapshot = {
            "counters": {"admitted": 3},
            "gauges": {"workers": 2.0},
            "latency": {"intent": {"count": 3, "mean": 0.001,
                                   "p50": 0.001, "p95": 0.002,
                                   "p99": 0.002, "max": 0.002}},
            "histograms": {},
            "caches": {"retrieval": {"hits": 1, "misses": 2,
                                     "hit_rate": 1 / 3, "size": 2}},
            "breakers": {"count_nodes": {"state": "open", "failures": 4,
                                         "times_opened": 1}},
            "trace": {"spans": 9, "dropped": 0, "max_spans": 100,
                      "by_kind": {"stage": 5, "step": 4}},
        }
        text = render_metrics_markdown(snapshot, title="Smoke")
        assert text.startswith("# Smoke")
        for fragment in ("## Counters", "| admitted | 3 |", "## Gauges",
                         "## Latency (per stage)", "| intent | 3 |",
                         "## Caches", "33.33%", "## Circuit breakers",
                         "| count_nodes | open | 4 | 1 |", "## Trace",
                         "spans: 9", "stage=5, step=4"):
            assert fragment in text

    def test_empty_snapshot_renders_title_only(self):
        assert render_metrics_markdown({}) == "# Metrics snapshot\n"

    def test_latency_values_formatted_as_ms(self):
        snapshot = {"latency": {"total": {
            "count": 1, "mean": 0.5, "p50": 0.5, "p95": 0.5,
            "p99": 0.5, "max": 0.5}}}
        assert "500.000ms" in render_metrics_markdown(snapshot)
