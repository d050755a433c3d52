"""Property and unit tests for the traffic simulator (repro.loadgen).

The load generator's core contract is determinism: under a fixed seed
the schedule — arrival offsets, persona assignment, every user's turn
stream — must be *byte-identical* across runs, because the ``bench-slo``
gate fingerprints the canonical JSONL.  Hypothesis drives that contract
across seeds and rates; the distribution tests pin that each arrival
process actually has the shape its name claims.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apis.registry import default_registry
from repro.errors import (
    ChatGraphError,
    ConfigError,
    FaultInjectionError,
    ServeError,
)
from repro.loadgen import (
    DEFAULT_PERSONAS,
    SCENARIOS,
    ConstantRate,
    DiurnalSinusoid,
    FleetEvent,
    PersonaSpec,
    PoissonBursts,
    SLOGate,
    SLOSpec,
    SoakRunner,
    StepSpike,
    VirtualClock,
    WindowedChaos,
    bench_workload,
    build_schedule,
    evaluate_slo,
    get_scenario,
    scenario_schedule,
)
from repro.loadgen.personas import pick_persona, user_requests
from repro.loadgen.schedule import Schedule, ScheduledRequest
from repro.serve import ServeRequest
from repro.testing.workloads import PROMPTS, bench_graphs, demo_graph_pool

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@pytest.fixture(scope="module")
def pool():
    return demo_graph_pool()


# ---------------------------------------------------------------------------
# arrival processes: validation
# ---------------------------------------------------------------------------
class TestArrivalValidation:
    def test_constant_rate_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            ConstantRate(rate=0.0)

    def test_poisson_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            PoissonBursts(rate=-1.0)

    def test_diurnal_rejects_amplitude_one(self):
        # amplitude 1.0 would zero out the trough rate
        with pytest.raises(ConfigError):
            DiurnalSinusoid(base_rate=1.0, amplitude=1.0)

    def test_diurnal_rejects_bad_period(self):
        with pytest.raises(ConfigError):
            DiurnalSinusoid(base_rate=1.0, period_seconds=0.0)

    def test_step_spike_requires_spike_above_base(self):
        with pytest.raises(ConfigError):
            StepSpike(base_rate=2.0, spike_rate=2.0,
                      spike_start=10.0, spike_end=20.0)

    def test_step_spike_requires_ordered_window(self):
        with pytest.raises(ConfigError):
            StepSpike(base_rate=1.0, spike_rate=4.0,
                      spike_start=20.0, spike_end=20.0)


# ---------------------------------------------------------------------------
# arrival processes: determinism and shape
# ---------------------------------------------------------------------------
class TestArrivalProperties:
    @given(seed=SEEDS,
           rate=st.floats(min_value=0.2, max_value=3.0),
           duration=st.floats(min_value=5.0, max_value=60.0))
    @settings(max_examples=30, deadline=None)
    def test_poisson_deterministic_sorted_bounded(self, seed, rate,
                                                  duration):
        process = PoissonBursts(rate=rate)
        first = process.times(duration, random.Random(seed))
        second = process.times(duration, random.Random(seed))
        assert first == second
        assert first == sorted(first)
        assert all(0.0 <= t < duration for t in first)

    @given(seed=SEEDS,
           base=st.floats(min_value=0.3, max_value=2.0),
           amplitude=st.floats(min_value=0.0, max_value=0.9))
    @settings(max_examples=30, deadline=None)
    def test_diurnal_deterministic_sorted_bounded(self, seed, base,
                                                  amplitude):
        process = DiurnalSinusoid(base_rate=base, amplitude=amplitude,
                                  period_seconds=40.0)
        first = process.times(60.0, random.Random(seed))
        second = process.times(60.0, random.Random(seed))
        assert first == second
        assert first == sorted(first)
        assert all(0.0 <= t < 60.0 for t in first)

    @given(rate=st.floats(min_value=0.1, max_value=10.0),
           duration=st.floats(min_value=1.0, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_constant_rate_exact_grid(self, rate, duration):
        process = ConstantRate(rate=rate)
        times = process.times(duration, random.Random(0))
        assert len(times) == int(math.floor(duration * rate))
        for index, t in enumerate(times):
            assert t == index / rate

    @given(seed_a=SEEDS, seed_b=SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_step_spike_ignores_rng(self, seed_a, seed_b):
        process = StepSpike(base_rate=0.5, spike_rate=4.0,
                            spike_start=10.0, spike_end=20.0)
        assert (process.times(60.0, random.Random(seed_a))
                == process.times(60.0, random.Random(seed_b)))

    def test_step_spike_window_density(self):
        process = StepSpike(base_rate=0.5, spike_rate=4.0,
                            spike_start=10.0, spike_end=20.0)
        times = process.times(60.0, random.Random(0))
        in_window = [t for t in times if 10.0 <= t < 20.0]
        outside = [t for t in times if t < 10.0]
        # exactly spike_rate inside the window, base_rate before it
        assert len(in_window) == pytest.approx(10.0 * 4.0, abs=1)
        assert len(outside) == pytest.approx(10.0 * 0.5, abs=1)
        assert process.rate_at(15.0) == 4.0
        assert process.rate_at(25.0) == 0.5

    def test_poisson_interarrival_mean(self):
        rate = 5.0
        times = PoissonBursts(rate=rate).times(2000.0, random.Random(7))
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean = sum(gaps) / len(gaps)
        assert mean == pytest.approx(1.0 / rate, rel=0.1)

    def test_diurnal_peak_denser_than_trough(self):
        # one full period: peak quarter around t=P/4, trough at 3P/4
        period = 400.0
        process = DiurnalSinusoid(base_rate=1.0, amplitude=0.8,
                                  period_seconds=period)
        times = process.times(period, random.Random(3))
        peak = [t for t in times if period * 0.125 <= t < period * 0.375]
        trough = [t for t in times
                  if period * 0.625 <= t < period * 0.875]
        assert len(peak) > 2 * len(trough)
        assert process.rate_at(period / 4) == pytest.approx(1.8)
        assert process.rate_at(3 * period / 4) == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# schedules: byte-identical under a seed
# ---------------------------------------------------------------------------
class TestScheduleDeterminism:
    @given(seed=SEEDS)
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_seed_byte_identical(self, seed, pool):
        arrival = ConstantRate(rate=1.0)
        first = build_schedule(arrival, 30.0, seed=seed, pool=pool)
        second = build_schedule(arrival, 30.0, seed=seed, pool=pool)
        assert first.to_jsonl() == second.to_jsonl()
        assert first.sha256() == second.sha256()

    def test_different_seeds_diverge(self, pool):
        arrival = PoissonBursts(rate=1.0)
        first = build_schedule(arrival, 60.0, seed=0, pool=pool)
        second = build_schedule(arrival, 60.0, seed=1, pool=pool)
        assert first.sha256() != second.sha256()

    def test_jsonl_is_canonical_and_time_sorted(self, pool):
        schedule = build_schedule(ConstantRate(rate=1.0), 30.0,
                                  seed=0, pool=pool)
        lines = schedule.to_jsonl().splitlines()
        assert len(lines) == len(schedule)
        records = [json.loads(line) for line in lines]
        ats = [record["at"] for record in records]
        assert ats == sorted(ats)
        for record in records:
            assert set(record) == {"at", "persona", "user", "seq", "op",
                                   "text", "client", "session", "graph"}

    def test_catalog_names_reach_schedule(self, pool):
        schedule = build_schedule(
            PoissonBursts(rate=2.0), 120.0, seed=0, pool=pool,
            catalog_names=("demo-social-m",))
        named = [item for item in schedule
                 if item.graph_key == "name:demo-social-m"]
        assert named, "ingestor catalog_share should emit named traffic"
        for item in named:
            assert item.request.graph is None
            assert item.request.graph_name == "demo-social-m"

    def test_persona_mix_converges_to_weights(self, pool):
        schedule = build_schedule(ConstantRate(rate=5.0), 200.0,
                                  seed=0, pool=pool)
        users: dict[str, set[str]] = {}
        for item in schedule:
            users.setdefault(item.persona, set()).add(item.user)
        total = sum(len(ids) for ids in users.values())
        weights = {spec.name: spec.weight for spec in DEFAULT_PERSONAS}
        for name, weight in weights.items():
            share = len(users.get(name, ())) / total
            assert share == pytest.approx(weight, abs=0.05)


# ---------------------------------------------------------------------------
# personas
# ---------------------------------------------------------------------------
class TestPersonas:
    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            PersonaSpec(name="bad", weight=0.0)
        with pytest.raises(ConfigError):
            PersonaSpec(name="bad", weight=1.0, op="delete")
        with pytest.raises(ConfigError):
            PersonaSpec(name="bad", weight=1.0, turns=(3, 2))
        with pytest.raises(ConfigError):
            PersonaSpec(name="bad", weight=1.0, session=True,
                        op="propose")
        with pytest.raises(ConfigError):
            PersonaSpec(name="bad", weight=1.0, catalog_share=1.5)

    def test_pick_persona_empty_population(self):
        with pytest.raises(ConfigError):
            pick_persona((), random.Random(0))

    def test_session_user_reattaches_graph_every_turn(self, pool):
        spec = next(s for s in DEFAULT_PERSONAS if s.name == "multi_turn")
        turns = list(user_requests(spec, "u-0", 0.0, random.Random(5),
                                   pool))
        assert len(turns) >= spec.turns[0]
        keys = {turn.graph_key for turn in turns}
        assert len(keys) == 1  # the whole dialog binds one graph
        for turn in turns:
            assert turn.request.session_id == "u-0"
            assert turn.request.graph is pool[turn.graph_key]

    def test_burst_spacing(self, pool):
        spec = PersonaSpec(name="bursty", weight=1.0, turns=(8, 8),
                           think_mean_seconds=10.0, burst_size=4,
                           burst_gap_seconds=0.05)
        turns = list(user_requests(spec, "u-1", 100.0, random.Random(2),
                                   pool))
        ats = [turn.at for turn in turns]
        assert ats[0] == 100.0
        # within a burst: exact gap; between bursts: a real think pause
        for index in (1, 2, 3, 5, 6, 7):
            assert ats[index] - ats[index - 1] == pytest.approx(0.05)
        assert ats[4] - ats[3] > 0.05

    def test_user_stream_deterministic(self, pool):
        spec = DEFAULT_PERSONAS[3]
        first = [(t.at, t.seq, t.graph_key, t.request.text)
                 for t in user_requests(spec, "u", 0.0,
                                        random.Random(9), pool)]
        second = [(t.at, t.seq, t.graph_key, t.request.text)
                  for t in user_requests(spec, "u", 0.0,
                                         random.Random(9), pool)]
        assert first == second


# ---------------------------------------------------------------------------
# the fixed propose stream the serving tests replay
# ---------------------------------------------------------------------------
class TestBenchWorkload:
    def test_matches_historic_builder_shape(self):
        requests = bench_workload(12, n_graphs=4)
        graphs = bench_graphs(4)
        assert len(requests) == 12
        for index, request in enumerate(requests):
            assert request.op == "propose"
            assert request.text == PROMPTS[index % len(PROMPTS)]
            assert request.client_id == f"client-{index % 4}"
            expected = graphs[index % len(graphs)]
            assert (request.graph.number_of_nodes()
                    == expected.number_of_nodes())
            assert (request.graph.number_of_edges()
                    == expected.number_of_edges())


# ---------------------------------------------------------------------------
# SLO gates
# ---------------------------------------------------------------------------
def _agg(submitted=10, ok=10, errors=0, degraded=0, rl=0, bp=0,
         p50=0.01, p95=0.02, p99=0.03):
    responses = ok + errors
    rejected = rl + bp
    return {
        "submitted": submitted, "ok": ok, "errors": errors,
        "degraded": degraded, "rejected_rate_limit": rl,
        "rejected_backpressure": bp, "rejected": rejected,
        "error_rate": errors / max(1, responses),
        "degraded_rate": degraded / max(1, responses),
        "rejection_rate": rejected / max(1, submitted),
        "latency": {"count": responses, "mean": p50, "p50": p50,
                    "p95": p95, "p99": p99},
    }


def _report(windows, personas=None, cache=(0.8,), open_at_end=(),
            breaker_opened=0):
    return {
        "overall": _agg(),
        "personas": personas or {"one_shot": _agg()},
        "windows": windows,
        "cache_hit_trajectory": list(cache),
        "breaker_timeline": [{"window": 0, "t": 0.0,
                              "open": list(open_at_end),
                              "breaker_opened": breaker_opened,
                              "queue_size": 0}],
        "counters": {"breaker_opened": breaker_opened},
    }


class TestSLO:
    def test_gate_validation(self):
        with pytest.raises(ConfigError):
            SLOGate(metric="p42_latency", max_value=1.0)
        with pytest.raises(ConfigError):
            SLOGate(metric="error_rate")  # no bounds
        with pytest.raises(ConfigError):
            SLOGate(metric="cache_hit_rate", min_value=0.1,
                    window_budget=0.5)  # no window trajectory
        with pytest.raises(ConfigError):
            SLOGate(metric="error_rate", max_value=0.1,
                    window_budget=1.5)
        with pytest.raises(ConfigError):
            SLOSpec(name="empty", gates=())

    def test_final_mode_bounds(self):
        report = _report(windows=[], breaker_opened=2)
        spec = SLOSpec(name="t", gates=(
            SLOGate(metric="error_rate", max_value=0.0),
            SLOGate(metric="breaker_opened", max_value=0.0),
        ))
        verdict = evaluate_slo(report, spec)
        assert not verdict["passed"]
        by_metric = {row["metric"]: row for row in verdict["gates"]}
        assert by_metric["error_rate"]["passed"]
        assert not by_metric["breaker_opened"]["passed"]
        assert by_metric["breaker_opened"]["value"] == 2.0

    def test_persona_scope_and_unknown_persona(self):
        report = _report(windows=[],
                         personas={"one_shot": _agg(errors=5, ok=5)})
        gate = SLOGate(metric="error_rate", persona="one_shot",
                       max_value=0.1)
        verdict = evaluate_slo(report, SLOSpec(name="t", gates=(gate,)))
        assert not verdict["passed"]
        missing = SLOGate(metric="error_rate", persona="ghost",
                          max_value=0.1)
        with pytest.raises(ConfigError):
            evaluate_slo(report, SLOSpec(name="t", gates=(missing,)))

    def test_window_budget_skips_empty_windows(self):
        windows = [
            {**_agg(errors=10, ok=0), "personas": {}},   # violating
            {**_agg(), "personas": {}},                  # clean
            {**_agg(submitted=0, ok=0), "personas": {}},  # empty
            {**_agg(), "personas": {}},                  # clean
        ]
        report = _report(windows=windows)
        gate = SLOGate(metric="error_rate", max_value=0.1,
                       window_budget=0.5)
        verdict = evaluate_slo(report, SLOSpec(name="t", gates=(gate,)))
        row = verdict["gates"][0]
        assert row["windows"] == 3  # the empty window never counts
        assert row["violations"] == 1
        assert row["passed"]
        tight = SLOGate(metric="error_rate", max_value=0.1,
                        window_budget=0.2)
        verdict = evaluate_slo(report,
                               SLOSpec(name="t", gates=(tight,)))
        assert not verdict["passed"]

    def test_breakers_recovered_reads_timeline_end(self):
        gate = SLOGate(metric="breakers_recovered", min_value=1.0)
        spec = SLOSpec(name="t", gates=(gate,))
        healthy = _report(windows=[], open_at_end=())
        stuck = _report(windows=[], open_at_end=("api_degree",))
        assert evaluate_slo(healthy, spec)["passed"]
        assert not evaluate_slo(stuck, spec)["passed"]

    def test_cache_hit_rate_is_trajectory_final(self):
        gate = SLOGate(metric="cache_hit_rate", min_value=0.5)
        spec = SLOSpec(name="t", gates=(gate,))
        warm = _report(windows=[], cache=(0.1, 0.4, 0.9))
        cold = _report(windows=[], cache=(0.9, 0.4, 0.1))
        assert evaluate_slo(warm, spec)["passed"]
        assert not evaluate_slo(cold, spec)["passed"]

    def test_counter_gates_bound_report_counters(self):
        report = _report(windows=[])
        report["counters"].update(shard_deaths=1, sessions_migrated=3)
        verdict = evaluate_slo(report, SLOSpec(name="t", gates=(
            SLOGate(metric="shard_deaths", min_value=1.0, max_value=1.0),
            SLOGate(metric="sessions_migrated", max_value=2.0),
            # listed counters the run never incremented read zero: a
            # floor fails, a ceiling holds
            SLOGate(metric="shard_restarts", min_value=1.0),
            SLOGate(metric="sessions_stranded", max_value=0.0),
        )))
        assert [(row["metric"], row["value"], row["passed"])
                for row in verdict["gates"]] == [
            ("shard_deaths", 1.0, True),
            ("sessions_migrated", 3.0, False),
            ("shard_restarts", 0.0, False),
            ("sessions_stranded", 0.0, True),
        ]
        assert not verdict["passed"]

    def test_unknown_counter_rejected(self):
        # a typo must not pass a ceiling gate by never appearing in any
        # report
        with pytest.raises(ConfigError):
            SLOGate(metric="shard_deths", max_value=0.0)
        with pytest.raises(ConfigError):
            SLOGate(metric="shard_deaths", max_value=0.0,
                    window_budget=0.5)  # counters have no trajectory


# ---------------------------------------------------------------------------
# fleet events and the sharded presets (no processes spawned)
# ---------------------------------------------------------------------------
class _StubFleet:
    """Records submissions and fleet calls in arrival order."""

    def __init__(self):
        self.log = []
        self.breakers = SimpleNamespace(open_names=lambda: [])

    def submit(self, request):
        self.log.append("submit")
        return self

    def result(self, timeout=None):
        return SimpleNamespace(ok=True, value=None, service_seconds=0.0,
                               queued_seconds=0.0)

    def stats(self):
        return {"counters": {}, "queue": {"size": 0}}

    def kill_shard(self, index):
        self.log.append(("kill", index))

    def add_shard(self):
        self.log.append(("add", None))
        return {"stranded": 0}

    def remove_shard(self, index):
        self.log.append(("remove", index))
        raise ServeError("shard 7 is not in the fleet")


class _SettlingFleet(_StubFleet):
    """A 3-shard stub whose killed shard returns only after the soak:
    the restart lands during ``run_scenario``'s settle wait, as on a
    real fleet whose soak drains faster than one worker model build."""

    def __init__(self):
        super().__init__()
        self.restarts = 0
        self.handles = [SimpleNamespace(alive=True, retired=False)
                        for _ in range(3)]

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        pass

    def stats(self):
        stats = super().stats()
        if self.restarts:
            stats["counters"] = {"shard_restarts": self.restarts}
        return stats

    def kill_shard(self, index):
        super().kill_shard(index)
        self.handles[index].alive = False

    @property
    def ring(self):
        # only the settle wait looks at the ring: the restart lands on
        # its first look
        for handle in self.handles:
            if not handle.alive:
                handle.alive = True
                self.restarts += 1
        return SimpleNamespace(shards=[0, 1, 2])


def test_run_scenario_reads_recovery_counters_after_the_settle(
        monkeypatch):
    import repro.shard
    from repro.loadgen.scenarios import run_scenario

    fleet = _SettlingFleet()
    monkeypatch.setattr(repro.shard, "ShardedChatGraphServer",
                        lambda *args, **kwargs: fleet)
    report = run_scenario(get_scenario("shard-kill", quick=True), seed=0)
    assert ("kill", 0) in fleet.log and fleet.restarts == 1
    assert report["fleet"]["alive"] == 3
    assert report["counters"]["shard_restarts"] == 1
    (gate,) = [row for row in report["slo"]["gates"]
               if row["metric"] == "shard_restarts"]
    assert gate["passed"]


class TestFleetEvents:
    def test_event_validation(self):
        with pytest.raises(ConfigError):
            FleetEvent(at=1.0, action="reboot", shard=0)
        with pytest.raises(ConfigError):
            FleetEvent(at=1.0, action="kill")
        with pytest.raises(ConfigError):
            FleetEvent(at=1.0, action="add", shard=1)

    @pytest.mark.parametrize("fake_clock", [True, False])
    def test_fire_once_in_time_order(self, fake_clock):
        # one request per second at t = 1..6 of a 7 s soak; events given
        # out of order, one landing between arrivals, one on an arrival
        # and one past the last arrival
        schedule = Schedule(
            [ScheduledRequest(at=float(t), persona="one_shot",
                              user=f"u{t}", arrival=t, seq=0,
                              graph_key="social-s",
                              request=ServeRequest(op="ask", text="q"))
             for t in range(1, 7)],
            duration=7.0, seed=0, arrival_name="grid")
        events = (FleetEvent(at=6.5, action="remove", shard=7),
                  FleetEvent(at=3.0, action="add"),
                  FleetEvent(at=1.5, action="kill", shard=0))
        server = _StubFleet()
        runner = SoakRunner(
            server, schedule,
            clock=VirtualClock() if fake_clock else None,
            events=events, sleep=lambda seconds: None)
        report = runner.run()
        assert server.log == [
            "submit", ("kill", 0), "submit", ("add", None), "submit",
            "submit", "submit", "submit", ("remove", 7)]
        fired = report["fleet_events"]
        assert [(row["action"], row["at"], row["fired_at"])
                for row in fired] == [
            ("kill", 1.5, 2.0), ("add", 3.0, 3.0), ("remove", 6.5, 7.0)]
        assert fired[1]["result"] == {"stranded": 0}
        # a refused reshape is recorded for the gates, not raised
        assert fired[2]["error"].startswith("ServeError")
        assert report["overall"]["ok"] == 6

    @pytest.mark.parametrize("name", ["shard-kill", "shard-reshape"])
    def test_sharded_presets_build_with_stable_schedules(self, name):
        scenario = get_scenario(name, quick=True)
        assert name in SCENARIOS
        assert scenario.serve.shards >= 2
        assert [event.at for event in scenario.events] == sorted(
            event.at for event in scenario.events)
        assert all(0.0 < event.at < scenario.duration
                   for event in scenario.events)
        first = scenario_schedule(scenario, seed=3)
        again = scenario_schedule(get_scenario(name, quick=True), seed=3)
        assert first.sha256() == again.sha256()
        assert first.sha256() != scenario_schedule(scenario,
                                                   seed=4).sha256()
        # named-graph traffic targets the published catalog graphs,
        # which the fleet keeps hot
        assert set(scenario.serve.shard_hot_graphs) == {
            f"demo-{key}" for key in scenario.catalog_graphs}


# ---------------------------------------------------------------------------
# virtual clock
# ---------------------------------------------------------------------------
class TestVirtualClock:
    def test_never_runs_backwards(self):
        clock = VirtualClock()
        clock.advance(5.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        assert clock.advance_to(2.0) == 5.0  # no-op backwards
        assert clock.advance_to(7.5) == 7.5
        assert clock() == 7.5

    def test_start_offset(self):
        assert VirtualClock(start=100.0)() == 100.0


# ---------------------------------------------------------------------------
# windowed chaos
# ---------------------------------------------------------------------------
class TestWindowedChaos:
    def test_validation(self):
        with pytest.raises(ChatGraphError):
            WindowedChaos(start=10.0, end=10.0)
        with pytest.raises(ChatGraphError):
            WindowedChaos(start=0.0, end=1.0, failure_rate=1.5)
        with pytest.raises(ChatGraphError):
            WindowedChaos(start=0.0, end=1.0, delay_seconds=-0.1)

    def test_unknown_api_names_rejected(self):
        chaos = WindowedChaos(start=0.0, end=1.0,
                              api_names=("no_such_api",))
        with pytest.raises(ChatGraphError):
            chaos.wrap_registry(default_registry())

    def test_faults_only_inside_window(self):
        chaos = WindowedChaos(start=10.0, end=20.0, failure_rate=1.0)
        clock = VirtualClock()
        chaos.use_clock(clock)
        spec = next(iter(default_registry()))
        wrapped = chaos.wrap_spec(
            replace(spec, func=lambda context, **kwargs: "ok"))

        assert not chaos.active()
        assert wrapped.func(None) == "ok"  # before the window
        clock.advance_to(15.0)
        assert chaos.active()
        with pytest.raises(FaultInjectionError):
            wrapped.func(None)
        clock.advance_to(20.0)  # window end is exclusive
        assert not chaos.active()
        assert wrapped.func(None) == "ok"
        assert chaos.injected_failures == 1
        assert chaos.stats()["injected_failures"] == {spec.name: 1}
        chaos.reset()
        assert chaos.injected_failures == 0

    def test_unbound_clock_is_passthrough(self):
        chaos = WindowedChaos(start=0.0, end=1e9, failure_rate=1.0)
        spec = next(iter(default_registry()))
        wrapped = chaos.wrap_spec(
            replace(spec, func=lambda context, **kwargs: "ok"))
        assert wrapped.func(None) == "ok"
        assert chaos.injected_failures == 0
