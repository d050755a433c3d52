"""Clock discipline: timing paths must not depend on wall-clock time.

``time.time()`` jumps (NTP sync, DST, manual clock changes), so every
duration in the codebase must be measured with ``time.perf_counter`` /
``time.monotonic`` and every deadline with an injectable monotonic
clock.  The static audit pins that rule; the patched-clock regression
proves a hostile wall clock cannot corrupt timings, stats, or traces.
"""

import re
import time
from pathlib import Path

import pytest

from repro.obs import Tracer
from repro.obs.metrics import MetricsRegistry

SRC = Path(__file__).parent.parent / "src" / "repro"


class TestStaticAudit:
    def test_no_wall_clock_calls_in_src(self):
        """No ``time.time()`` anywhere in the library sources."""
        pattern = re.compile(r"\btime\.time\s*\(")
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            for lineno, line in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), 1):
                if pattern.search(line):
                    offenders.append(f"{path.relative_to(SRC)}:{lineno}: "
                                     f"{line.strip()}")
        assert not offenders, (
            "time.time() found in timing-sensitive sources; use "
            "time.perf_counter/time.monotonic instead:\n"
            + "\n".join(offenders))

    def test_monotonic_clocks_are_used(self):
        """The timing substrate actually references monotonic clocks."""
        text = "\n".join(path.read_text(encoding="utf-8")
                         for path in sorted(SRC.rglob("*.py")))
        assert "time.perf_counter" in text
        assert "time.monotonic" in text

    def test_loadgen_generators_never_touch_the_clock(self):
        """Schedule generation is pure virtual time — no ``time`` at all.

        Arrival processes, personas, schedules, and SLO evaluation
        define *when* things happen in virtual seconds; if any of them
        read a real clock, fixed-seed schedules could not be
        byte-identical.  The runner/chaos/scenario modules may use
        monotonic clocks (they execute schedules in real time too),
        which the time.time() audit above already polices.
        """
        pure = ("loadgen/arrivals.py", "loadgen/personas.py",
                "loadgen/schedule.py", "loadgen/slo.py")
        pattern = re.compile(r"^\s*import time\b|^\s*from time\b|"
                             r"\btime\.\w+", re.MULTILINE)
        offenders = []
        for relative in pure:
            text = (SRC / relative).read_text(encoding="utf-8")
            for match in pattern.finditer(text):
                lineno = text.count("\n", 0, match.start()) + 1
                line = text.splitlines()[lineno - 1].strip()
                if line.startswith("#") or ":mod:" in line:
                    continue  # docs may name the banned module
                offenders.append(f"{relative}:{lineno}: {line}")
        assert not offenders, (
            "loadgen generator modules must stay free of the time "
            "module (virtual time only):\n" + "\n".join(offenders))


class HostileClock:
    """A wall clock that jumps backwards and forwards on every read."""

    def __init__(self):
        self.jumps = [1e9, 5.0, -3600.0, 86400.0, -1.0, 0.0]
        self.now = 1.7e9
        self.reads = 0

    def __call__(self):
        self.reads += 1
        self.now += self.jumps[self.reads % len(self.jumps)]
        return self.now


class TestPatchedClockRegression:
    def test_wall_clock_jumps_do_not_corrupt_timings(
            self, monkeypatch, chatgraph):
        """time.time() can misbehave freely: nothing consumes it."""
        from repro.graphs.generators import social_network
        hostile = HostileClock()
        monkeypatch.setattr(time, "time", hostile)
        response = chatgraph.ask("count the nodes",
                                 graph=social_network(20, 2, seed=3))
        assert response.record is not None and response.record.ok
        assert 0.0 <= response.seconds < 60.0
        for stage, seconds in response.pipeline.timings.items():
            assert 0.0 <= seconds < 60.0, (stage, seconds)
        for step in response.record.steps:
            assert 0.0 <= step.seconds < 60.0

    def test_tracer_timings_ignore_wall_clock(self, monkeypatch):
        hostile = HostileClock()
        monkeypatch.setattr(time, "time", hostile)
        tracer = Tracer(seed=0)
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(10000))
        for span in tracer.finished_spans():
            assert 0.0 <= span.wall_seconds < 60.0
            assert span.cpu_seconds is not None and span.cpu_seconds >= 0.0

    def test_server_stats_ignore_wall_clock(self, monkeypatch):
        hostile = HostileClock()
        monkeypatch.setattr(time, "time", hostile)
        metrics = MetricsRegistry()
        start = time.perf_counter()
        sum(range(20000))
        metrics.observe("stage", time.perf_counter() - start)
        histogram = metrics.histogram("stage")
        assert histogram.count == 1
        assert 0.0 <= histogram.min <= histogram.max < 60.0

    def test_breaker_cooldown_uses_injectable_monotonic_clock(
            self, monkeypatch):
        """A backwards wall-clock jump cannot reopen/hold a breaker."""
        from repro.serve.breaker import BreakerState, CircuitBreaker
        hostile = HostileClock()
        monkeypatch.setattr(time, "time", hostile)
        fake_monotonic = [0.0]
        breaker = CircuitBreaker(failure_threshold=1,
                                 failure_rate_threshold=1.0,
                                 window_size=2, cooldown_seconds=5.0,
                                 clock=lambda: fake_monotonic[0])
        assert breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        fake_monotonic[0] += 5.0
        assert breaker.state is BreakerState.HALF_OPEN

    def test_deterministic_trace_despite_hostile_clock(
            self, monkeypatch, chatgraph):
        """Span identity is seed-derived, so even a hostile wall clock
        leaves the canonical export unchanged."""
        from repro.config import ObsConfig, ServeConfig
        from repro.graphs.generators import social_network
        from repro.obs import spans_to_jsonl
        from repro.serve import ChatGraphServer

        def run():
            config = ServeConfig(workers=1, seed=0,
                                 obs=ObsConfig(enable_tracing=True))
            with ChatGraphServer(chatgraph, config) as server:
                assert server.ask("count the nodes",
                                  graph=social_network(20, 2, seed=3)).ok
                return spans_to_jsonl(server.tracer.finished_spans(),
                                      canonical=True)

        clean = run()
        monkeypatch.setattr(time, "time", HostileClock())
        hostile = run()
        assert clean == hostile


def test_pytest_clock_sanity():
    """perf_counter and monotonic advance; guards the fixtures above."""
    a, b = time.perf_counter(), time.perf_counter()
    assert b >= a
    c, d = time.monotonic(), time.monotonic()
    assert d >= c
