"""Fake-clock soak regressions: the scenarios keep telling their story.

The spike scenario is the load generator's reason to exist — a step
overload aligned with a chaos brownout must shed load through
admission backpressure, trip circuit breakers, degrade responses, and
*recover* before the run ends, with the runner's books balancing
exactly against ``server.stats()``.  These tests pin that narrative
end to end, plus the subsystem stories the diurnal scenario exercises
(session TTL eviction, per-client token buckets) both inside a soak
and directly on a :class:`~repro.loadgen.runner.VirtualClock`.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import RateLimitError, SessionError
from repro.loadgen import (
    ConstantRate,
    VirtualClock,
    get_scenario,
    run_scenario,
)
from repro.loadgen.scenarios import build_soak_chatgraph
from repro.serve.admission import RateLimiter
from repro.serve.sessions import SessionStore

CORPUS = 160


@pytest.fixture(scope="module")
def soak_chatgraph():
    """One pretrained model shared by every fault-free soak here."""
    return build_soak_chatgraph(corpus_size=CORPUS, seed=0)


# ---------------------------------------------------------------------------
# the spike story: shed, trip, degrade, recover, reconcile
# ---------------------------------------------------------------------------
class TestSpikeSoak:
    @pytest.fixture(scope="class")
    def spike_report(self):
        scenario = get_scenario("spike", quick=True)
        # chaos wraps the registry *before* finetuning, same as bench-slo
        chatgraph = build_soak_chatgraph(chaos=scenario.chaos,
                                         corpus_size=CORPUS, seed=0)
        return run_scenario(scenario, seed=0, chatgraph=chatgraph,
                            corpus_size=CORPUS)

    def test_slo_gates_pass(self, spike_report):
        verdict = spike_report["slo"]
        failed = [row["gate"] for row in verdict["gates"]
                  if not row["passed"]]
        assert verdict["passed"], f"failed gates: {failed}"

    def test_chaos_injected_faults(self, spike_report):
        injected = spike_report["chaos"]["injected_failures"]
        assert sum(injected.values()) > 0

    def test_breakers_opened_then_recovered(self, spike_report):
        assert spike_report["counters"]["breaker_opened"] >= 1
        timeline = spike_report["breaker_timeline"]
        assert any(entry["open"] for entry in timeline), \
            "no timeline sample caught an open breaker"
        assert timeline[-1]["open"] == [], \
            f"breakers still open at soak end: {timeline[-1]['open']}"

    def test_overload_shed_via_backpressure(self, spike_report):
        overall = spike_report["overall"]
        assert overall["rejected_backpressure"] >= 1
        # shedding happens *in* the spike, not at the steady baseline
        spike_windows = [w for w in spike_report["windows"]
                         if w["rejected_backpressure"] > 0]
        assert spike_windows
        arrival = spike_report["arrival"]
        assert arrival == "step-spike"

    def test_degradation_is_confined(self, spike_report):
        # after the brownout and cooldown the tail windows run clean
        tail = spike_report["windows"][-2:]
        assert all(w["degraded"] == 0 and w["errors"] == 0
                   for w in tail if w["submitted"])

    def test_books_balance_exactly(self, spike_report):
        reconciliation = spike_report["reconciliation"]
        assert reconciliation["exact"], reconciliation


# ---------------------------------------------------------------------------
# steady baseline + determinism of the replay itself
# ---------------------------------------------------------------------------
class TestSteadySoak:
    def test_clean_run_and_repeatable_schedule(self, soak_chatgraph):
        scenario = get_scenario("steady", quick=True)
        first = run_scenario(scenario, seed=0, chatgraph=soak_chatgraph)
        second = run_scenario(scenario, seed=0, chatgraph=soak_chatgraph)
        assert first["slo"]["passed"]
        assert first["overall"]["errors"] == 0
        assert first["overall"]["rejected"] == 0
        assert first["reconciliation"]["exact"]
        assert first["cache_hit_trajectory"][-1] >= 0.3
        # identical seed -> byte-identical schedule and identical books
        assert first["schedule_sha256"] == second["schedule_sha256"]
        assert first["overall"]["submitted"] \
            == second["overall"]["submitted"]
        assert first["schedule_personas"] == second["schedule_personas"]


# ---------------------------------------------------------------------------
# diurnal load exercises TTLs and token buckets organically
# ---------------------------------------------------------------------------
class TestDiurnalSoak:
    @pytest.fixture(scope="class")
    def diurnal_report(self, soak_chatgraph):
        return run_scenario(get_scenario("diurnal", quick=True),
                            seed=0, chatgraph=soak_chatgraph)

    def test_slo_passes_with_bounded_shedding(self, diurnal_report):
        assert diurnal_report["slo"]["passed"]
        assert diurnal_report["reconciliation"]["exact"]

    def test_session_ttl_eviction_happens(self, diurnal_report):
        # troughs leave multi-turn sessions idle past the 45s TTL
        assert diurnal_report["sessions"]["evicted_ttl"] >= 1

    def test_rate_limiter_sheds_at_peak(self, diurnal_report):
        assert diurnal_report["counters"]["rejected_rate_limit"] >= 1
        # idle-bucket eviction bounds memory below one-bucket-per-user
        assert (diurnal_report["rate_limiter"]["clients"]
                < diurnal_report["schedule_users"])


# ---------------------------------------------------------------------------
# real-clock discipline: the same machinery runs on wall time
# ---------------------------------------------------------------------------
class TestRealClockSanity:
    def test_tiny_real_clock_soak(self, soak_chatgraph):
        smoke = get_scenario("smoke", quick=True)
        scenario = dataclasses.replace(
            smoke, duration=3.0, window_seconds=1.5,
            arrival=ConstantRate(rate=1.0))
        report = run_scenario(scenario, seed=0, fake_clock=False,
                              chatgraph=soak_chatgraph)
        assert report["fake_clock"] is False
        assert report["slo"]["passed"]
        assert report["reconciliation"]["exact"]


# ---------------------------------------------------------------------------
# direct subsystem checks on a VirtualClock (no server involved)
# ---------------------------------------------------------------------------
class TestSessionTTLOnVirtualClock:
    def test_idle_sessions_expire_virtually(self, soak_chatgraph):
        clock = VirtualClock()
        store = SessionStore(soak_chatgraph, ttl_seconds=45.0, clock=clock)
        store.get_or_create("early")
        clock.advance(30.0)
        store.get_or_create("late")
        store.get_or_create("early")  # refresh: last_used = 30
        clock.advance(50.0)  # early idle 50 > 45, late idle 50 > 45
        assert store.evict_expired() == 2
        with pytest.raises(SessionError):
            store.get("early")

    def test_refresh_defers_eviction(self, soak_chatgraph):
        clock = VirtualClock()
        store = SessionStore(soak_chatgraph, ttl_seconds=45.0, clock=clock)
        store.get_or_create("chatty")
        for _ in range(4):
            clock.advance(40.0)  # always under the TTL
            store.get_or_create("chatty")
        assert store.evict_expired() == 0
        assert store.get("chatty").requests == 5


class TestRateLimiterOnVirtualClock:
    def test_bucket_drains_and_refills_virtually(self):
        clock = VirtualClock()
        limiter = RateLimiter(capacity=3, refill_per_second=0.5,
                              clock=clock)
        for _ in range(3):
            limiter.admit("peak-user")
        with pytest.raises(RateLimitError) as excinfo:
            limiter.admit("peak-user")
        assert excinfo.value.retry_after > 0.0
        clock.advance(2.0)  # exactly one token refilled
        limiter.admit("peak-user")
        with pytest.raises(RateLimitError):
            limiter.admit("peak-user")

    def test_other_clients_unaffected(self):
        clock = VirtualClock()
        limiter = RateLimiter(capacity=2, refill_per_second=0.5,
                              clock=clock)
        limiter.admit("greedy")
        limiter.admit("greedy")
        with pytest.raises(RateLimitError):
            limiter.admit("greedy")
        limiter.admit("polite")  # separate bucket

    def test_idle_full_buckets_are_evicted(self):
        clock = VirtualClock()
        limiter = RateLimiter(capacity=3, refill_per_second=0.5,
                              clock=clock)
        for _ in range(3):
            limiter.admit("burst")
        # refill-to-full takes 6s, and so does the sweep interval
        clock.advance(120.0)
        limiter.admit("next-day")  # sweep runs on this admit
        assert len(limiter) == 1
