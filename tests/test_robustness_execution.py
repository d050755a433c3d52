"""Tests for the chain-execution robustness layer (ISSUE 2).

Covers the acceptance points: a step that fails twice then succeeds
completes via retries; a hung step is cut off by its timeout; a
persistently failing API opens its circuit breaker and later chains
degrade gracefully with a populated ``degraded`` report — all
deterministic under a fixed seed, with the retry/timeout/breaker
counters visible in ``server.stats()`` and the new monitor events
rendered in the transcript.
"""

from __future__ import annotations

import time

import pytest

from repro import ChatGraph, ChatGraphServer, ServeConfig, ServeRequest
from repro.apis import (
    APIChain,
    APIRegistry,
    APISpec,
    Category,
    ChainContext,
    ChainExecutor,
    ExecutionPolicy,
    StepPolicy,
    default_registry,
)
from repro.errors import (
    ChainExecutionError,
    ChatGraphError,
    CircuitOpenError,
    FaultInjectionError,
    StepTimeoutError,
)
from repro.finetune.dataset import CorpusSpec
from repro.graphs import social_network
from repro.serve.breaker import BreakerRegistry, BreakerState, CircuitBreaker
from repro.testing.faults import FaultInjector, FaultSpec, chaos_registry


def no_sleep(_seconds: float) -> None:
    """Injectable sleep for instant retries."""


@pytest.fixture()
def flaky_registry():
    """Toy registry with deterministic failure profiles."""
    registry = APIRegistry()
    state = {"flaky_calls": 0}

    def flaky(ctx):
        state["flaky_calls"] += 1
        if state["flaky_calls"] <= 2:
            raise RuntimeError("transient boom")
        return "recovered"

    registry.register(APISpec(
        "flaky_api", "fails twice then succeeds", Category.GENERIC, flaky))
    registry.register(APISpec(
        "down_api", "always fails", Category.GENERIC,
        lambda ctx: (_ for _ in ()).throw(RuntimeError("down"))))
    registry.register(APISpec(
        "slow_api", "sleeps forever-ish", Category.GENERIC,
        lambda ctx: time.sleep(5.0)))
    registry.register(APISpec(
        "ok_api", "always works", Category.GENERIC, lambda ctx: "fine"))
    registry.register(APISpec(
        "fallback_api", "stand-in result", Category.GENERIC,
        lambda ctx: "from-fallback"))
    return registry


# ----------------------------------------------------------------------
# policies
# ----------------------------------------------------------------------
class TestStepPolicy:
    def test_validation(self):
        with pytest.raises(ChatGraphError):
            StepPolicy(timeout_seconds=0.0)
        with pytest.raises(ChatGraphError):
            StepPolicy(max_retries=-1)
        with pytest.raises(ChatGraphError):
            StepPolicy(backoff_multiplier=0.5)
        with pytest.raises(ChatGraphError):
            StepPolicy(jitter_fraction=1.5)

    def test_backoff_grows_exponentially(self):
        policy = StepPolicy(backoff_base_seconds=0.1,
                            backoff_multiplier=2.0, jitter_fraction=0.0)
        rng = ExecutionPolicy(seed=0).jitter_rng("a", 0)
        delays = [policy.backoff_seconds(k, rng) for k in range(3)]
        assert delays == [pytest.approx(0.1), pytest.approx(0.2),
                          pytest.approx(0.4)]

    def test_jitter_is_seeded_and_bounded(self):
        policy = StepPolicy(backoff_base_seconds=0.1,
                            backoff_multiplier=1.0, jitter_fraction=0.5)
        first = [policy.backoff_seconds(
            k, ExecutionPolicy(seed=7).jitter_rng("api", 2))
            for k in range(4)]
        second = [policy.backoff_seconds(
            k, ExecutionPolicy(seed=7).jitter_rng("api", 2))
            for k in range(4)]
        assert first == second  # deterministic under a fixed seed
        assert all(0.1 <= d <= 0.15 for d in first)
        different = [policy.backoff_seconds(
            k, ExecutionPolicy(seed=8).jitter_rng("api", 2))
            for k in range(4)]
        assert first != different

    def test_per_api_overrides(self):
        policy = ExecutionPolicy(
            default=StepPolicy(max_retries=1),
            per_api={"slow_api": StepPolicy(timeout_seconds=0.5)})
        assert policy.for_api("slow_api").timeout_seconds == 0.5
        assert policy.for_api("other").max_retries == 1


# ----------------------------------------------------------------------
# executor: retries, timeouts, fallbacks, degradation
# ----------------------------------------------------------------------
class TestRetries:
    def test_fails_twice_then_succeeds_via_retries(self, flaky_registry):
        events = []
        policy = ExecutionPolicy(default=StepPolicy(
            max_retries=3, backoff_base_seconds=0.001))
        executor = ChainExecutor(flaky_registry, policy=policy,
                                 sleep=no_sleep)
        executor.add_listener(events.append)
        record = executor.execute(APIChain.from_names(["flaky_api"]),
                                  ChainContext())
        assert record.ok and not record.is_degraded
        assert record.final_result == "recovered"
        assert record.steps[0].attempts == 3
        kinds = [e.kind for e in events]
        assert kinds.count("step_retried") == 2
        assert kinds[-1] == "chain_finished"

    def test_retry_budget_exhausted_raises_when_critical(
            self, flaky_registry):
        policy = ExecutionPolicy(default=StepPolicy(
            max_retries=2, backoff_base_seconds=0.0))
        executor = ChainExecutor(flaky_registry, policy=policy,
                                 sleep=no_sleep)
        with pytest.raises(ChainExecutionError):
            executor.execute(APIChain.from_names(["down_api"]),
                             ChainContext())

    def test_backoff_delays_are_deterministic(self, flaky_registry):
        def run():
            slept = []
            policy = ExecutionPolicy(default=StepPolicy(
                max_retries=2, backoff_base_seconds=0.01), seed=5)
            executor = ChainExecutor(flaky_registry, policy=policy,
                                     sleep=slept.append)
            record = executor.execute(
                APIChain.from_names(["down_api"]), ChainContext(),
                stop_on_error=False)
            assert not record.ok
            return slept

        assert run() == run()

    def test_per_call_policy_overrides_executor_default(
            self, flaky_registry):
        executor = ChainExecutor(flaky_registry, sleep=no_sleep)
        override = ExecutionPolicy(default=StepPolicy(
            max_retries=5, backoff_base_seconds=0.0))
        record = executor.execute(APIChain.from_names(["flaky_api"]),
                                  ChainContext(), policy=override)
        assert record.ok and record.steps[0].attempts == 3


class TestTimeouts:
    def test_hung_step_cut_off_by_timeout(self, flaky_registry):
        events = []
        policy = ExecutionPolicy(default=StepPolicy(
            timeout_seconds=0.05, max_retries=0, critical=False))
        executor = ChainExecutor(flaky_registry, policy=policy,
                                 sleep=no_sleep)
        executor.add_listener(events.append)
        start = time.perf_counter()
        record = executor.execute(
            APIChain.from_names(["slow_api", "ok_api"]), ChainContext())
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0  # nowhere near slow_api's 5s sleep
        assert not record.ok
        assert record.steps[0].timed_out
        assert record.degraded[0].reason == "timeout"
        assert "step_timed_out" in [e.kind for e in events]
        # the chain continued past the hung step
        assert record.steps[1].ok and record.final_result == "fine"

    def test_timeout_error_raised_when_critical(self, flaky_registry):
        policy = ExecutionPolicy(default=StepPolicy(
            timeout_seconds=0.05, max_retries=0))
        executor = ChainExecutor(flaky_registry, policy=policy,
                                 sleep=no_sleep)
        with pytest.raises(ChainExecutionError) as excinfo:
            executor.execute(APIChain.from_names(["slow_api"]),
                             ChainContext())
        assert isinstance(excinfo.value.cause, StepTimeoutError)


class TestFallbacks:
    def test_fallback_serves_exhausted_step(self, flaky_registry):
        policy = ExecutionPolicy(default=StepPolicy(
            max_retries=1, backoff_base_seconds=0.0,
            fallback_api="fallback_api"))
        executor = ChainExecutor(flaky_registry, policy=policy,
                                 sleep=no_sleep)
        context = ChainContext()
        record = executor.execute(APIChain.from_names(["down_api"]),
                                  context)
        assert record.ok
        assert record.steps[0].used_fallback
        assert record.final_result == "from-fallback"
        # downstream lookups still resolve through the chain's name
        assert context.latest("down_api") == "from-fallback"

    def test_failing_fallback_still_degrades(self, flaky_registry):
        # down_api is its own fallback: the fallback attempt also fails,
        # so the step degrades and the report names the fallback tried
        policy = ExecutionPolicy(default=StepPolicy(
            max_retries=0, fallback_api="down_api", critical=False))
        executor = ChainExecutor(flaky_registry, policy=policy,
                                 sleep=no_sleep)
        record = executor.execute(APIChain.from_names(["down_api"]),
                                  ChainContext())
        assert not record.ok
        entry = record.degraded[0]
        assert entry.reason == "retries_exhausted"
        assert entry.fallback_api == "down_api"


class TestDegradation:
    def test_non_critical_failure_returns_partial_record(
            self, flaky_registry):
        policy = ExecutionPolicy(
            default=StepPolicy(),
            per_api={"down_api": StepPolicy(
                max_retries=1, backoff_base_seconds=0.0,
                critical=False)})
        executor = ChainExecutor(flaky_registry, policy=policy,
                                 sleep=no_sleep)
        record = executor.execute(
            APIChain.from_names(["ok_api", "down_api", "ok_api"]),
            ChainContext())  # stop_on_error=True, yet no raise
        assert not record.ok
        assert record.is_degraded
        entry = record.degraded[0]
        assert entry.api_name == "down_api"
        assert entry.reason == "retries_exhausted"
        assert entry.attempts == 2
        report = record.degraded_report()
        assert report["degraded"] is True
        assert report["steps"][0]["index"] == 1
        assert report["retries"] >= 1
        assert record.final_result == "fine"


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, **overrides):
        self.now = 0.0
        kwargs = dict(failure_threshold=3, failure_rate_threshold=0.5,
                      window_size=6, cooldown_seconds=10.0,
                      clock=lambda: self.now)
        kwargs.update(overrides)
        return CircuitBreaker(**kwargs)

    def test_trips_after_threshold_failures(self):
        breaker = self.make()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True  # opened on this call
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(10.0)

    def test_low_failure_rate_does_not_trip(self):
        # enough failures in absolute count, but the windowed rate
        # stays below the threshold -> circuit stays closed
        breaker = self.make(window_size=8)
        for _ in range(5):
            breaker.record_success()
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False  # 3/8 < 0.5
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_half_open_probe_then_close(self):
        breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        self.now = 10.0  # cooldown elapsed
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()       # the single probe
        assert not breaker.allow()   # concurrent calls stay blocked
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        self.now = 10.0
        assert breaker.allow()
        assert breaker.record_failure() is True  # re-opened
        assert breaker.state is BreakerState.OPEN
        self.now = 15.0  # cooldown restarted at t=10
        assert breaker.state is BreakerState.OPEN
        assert breaker.times_opened == 2

    def test_registry_shares_per_api_breakers(self):
        registry = BreakerRegistry(failure_threshold=2,
                                   failure_rate_threshold=0.5,
                                   window_size=4, cooldown_seconds=5.0)
        assert registry.allow("api_a")
        registry.record_failure("api_a")
        opened = registry.record_failure("api_a")
        assert opened
        assert not registry.allow("api_a")
        assert registry.allow("api_b")  # independent circuit
        snapshot = registry.snapshot()
        assert snapshot["api_a"]["state"] == "open"
        assert registry.open_names() == ["api_a"]
        registry.reset()
        assert registry.allow("api_a")


class TestExecutorWithBreaker:
    def test_open_breaker_short_circuits_step(self, flaky_registry):
        events = []
        breakers = BreakerRegistry(failure_threshold=2,
                                   failure_rate_threshold=0.5,
                                   window_size=4, cooldown_seconds=60.0)
        policy = ExecutionPolicy(default=StepPolicy(
            max_retries=1, backoff_base_seconds=0.0, critical=False))
        executor = ChainExecutor(flaky_registry, policy=policy,
                                 breakers=breakers, sleep=no_sleep)
        executor.add_listener(events.append)
        first = executor.execute(APIChain.from_names(["down_api"]),
                                 ChainContext())
        assert first.degraded[0].reason == "retries_exhausted"
        assert "breaker_opened" in [e.kind for e in events]
        # circuit now open: the API is not even called
        second = executor.execute(APIChain.from_names(["down_api"]),
                                  ChainContext())
        assert second.degraded[0].reason == "breaker_open"
        assert second.steps[0].error.startswith("circuit breaker")
        # successes of other APIs are unaffected
        ok = executor.execute(APIChain.from_names(["ok_api"]),
                              ChainContext())
        assert ok.ok

    def test_breaker_open_raises_when_critical(self, flaky_registry):
        breakers = BreakerRegistry(failure_threshold=1,
                                   failure_rate_threshold=0.5,
                                   window_size=2, cooldown_seconds=60.0)
        policy = ExecutionPolicy(default=StepPolicy(max_retries=0))
        executor = ChainExecutor(flaky_registry, policy=policy,
                                 breakers=breakers, sleep=no_sleep)
        with pytest.raises(ChainExecutionError):
            executor.execute(APIChain.from_names(["down_api"]),
                             ChainContext())
        with pytest.raises(ChainExecutionError) as excinfo:
            executor.execute(APIChain.from_names(["down_api"]),
                             ChainContext())
        assert isinstance(excinfo.value.cause, CircuitOpenError)


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_fail_times_is_deterministic(self, flaky_registry):
        injector = FaultInjector(seed=3)
        wrapped = injector.wrap_registry(
            flaky_registry, {"ok_api": FaultSpec(fail_times=2)})
        executor = ChainExecutor(
            wrapped,
            policy=ExecutionPolicy(default=StepPolicy(
                max_retries=3, backoff_base_seconds=0.0)),
            sleep=no_sleep)
        record = executor.execute(APIChain.from_names(["ok_api"]),
                                  ChainContext())
        assert record.ok and record.steps[0].attempts == 3
        stats = injector.stats()
        assert stats["injected_failures"] == {"ok_api": 2}
        assert stats["calls"] == {"ok_api": 3}

    def test_injected_error_type(self, flaky_registry):
        injector = FaultInjector(seed=0)
        wrapped = injector.wrap_registry(
            flaky_registry, {"ok_api": FaultSpec(fail_times=1)})
        executor = ChainExecutor(wrapped, sleep=no_sleep)
        with pytest.raises(ChainExecutionError) as excinfo:
            executor.execute(APIChain.from_names(["ok_api"]),
                             ChainContext())
        assert isinstance(excinfo.value.cause, FaultInjectionError)

    def test_seeded_failure_rate_reproducible(self, flaky_registry):
        def outcomes(seed):
            injector = FaultInjector(seed=seed)
            wrapped = injector.wrap_registry(
                flaky_registry, {"ok_api": FaultSpec(failure_rate=0.5)})
            spec = wrapped.get("ok_api")
            out = []
            for _ in range(20):
                try:
                    spec.call(ChainContext())
                    out.append(True)
                except FaultInjectionError:
                    out.append(False)
            return out

        assert outcomes(11) == outcomes(11)
        assert outcomes(11) != outcomes(12)

    def test_hang_delay_triggers_timeout(self, flaky_registry):
        injector = FaultInjector(seed=0)
        wrapped = injector.wrap_registry(
            flaky_registry,
            {"ok_api": FaultSpec(delay_seconds=0.3, hang=True,
                                 delay_times=1)})
        policy = ExecutionPolicy(default=StepPolicy(
            timeout_seconds=0.05, max_retries=1,
            backoff_base_seconds=0.0, critical=False))
        executor = ChainExecutor(wrapped, policy=policy, sleep=no_sleep)
        record = executor.execute(APIChain.from_names(["ok_api"]),
                                  ChainContext())
        # first attempt hangs and is cut off; the retry succeeds
        assert record.ok
        assert record.steps[0].attempts == 2

    def test_unknown_api_rejected(self, flaky_registry):
        injector = FaultInjector()
        with pytest.raises(ChatGraphError):
            injector.wrap_registry(flaky_registry,
                                   {"nope": FaultSpec(fail_times=1)})

    def test_chaos_registry_sampling_deterministic(self):
        base = default_registry()
        _, _, faults_a = chaos_registry(base, seed=4, n_faulty=5)
        _, _, faults_b = chaos_registry(default_registry(), seed=4,
                                        n_faulty=5)
        assert sorted(faults_a) == sorted(faults_b)
        assert len(faults_a) == 5


# ----------------------------------------------------------------------
# serve-level: the whole stack under injected faults
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fault_stack():
    """A small ChatGraph over a fault-wrapped full catalog."""
    injector = FaultInjector(seed=9)
    faults = {
        "count_nodes": FaultSpec(fail_times=2),
        "graph_density": FaultSpec(fail_times=10 ** 9,
                                   message="backend down"),
        "count_edges": FaultSpec(delay_seconds=1.0, hang=True),
    }
    registry = injector.wrap_registry(default_registry(), faults)
    chatgraph = ChatGraph(registry=registry)
    chatgraph.finetune(CorpusSpec(n_examples=150, seed=0))
    return chatgraph, injector


def fault_server(chatgraph, **overrides) -> ChatGraphServer:
    defaults = dict(workers=2, queue_depth=32,
                    step_timeout_seconds=0.2, step_max_retries=2,
                    retry_backoff_seconds=0.005,
                    breaker_failure_threshold=3,
                    breaker_failure_rate=0.5, breaker_window=6,
                    breaker_cooldown_seconds=60.0, seed=0)
    defaults.update(overrides)
    return ChatGraphServer(chatgraph, ServeConfig(**defaults))


def execute_chain(server, graph, names):
    proposal = server.propose("count the nodes", graph=graph)
    assert proposal.ok
    return server.request(ServeRequest(
        op="execute", pipeline_result=proposal.value,
        chain=APIChain.from_names(names)))


class TestServeUnderFaults:
    def test_retries_absorb_transient_faults(self, fault_stack):
        chatgraph, injector = fault_stack
        graph = social_network(25, 3, seed=2)
        with fault_server(chatgraph) as server:
            response = execute_chain(server, graph, ["count_nodes"])
            assert response.ok
            record = response.value.record
            assert record.ok and not record.is_degraded
            assert record.steps[0].attempts == 3
            snapshot = server.stats()
        assert snapshot["counters"]["step_retried"] >= 2
        # the recovery is visible in the monitor transcript
        transcript = response.value.monitor.transcript()
        assert "step_retried" in transcript
        assert response.value.monitor.retries == 2
        assert injector.stats()["injected_failures"]["count_nodes"] == 2

    def test_hung_step_times_out_and_degrades(self, fault_stack):
        chatgraph, _ = fault_stack
        graph = social_network(25, 3, seed=2)
        with fault_server(chatgraph, step_max_retries=1) as server:
            response = execute_chain(server, graph,
                                     ["count_edges", "graph_summary"])
            assert response.ok  # the *request* resolves
            record = response.value.record
            assert record.is_degraded
            assert record.degraded[0].reason == "timeout"
            assert record.steps[1].ok  # chain continued
            snapshot = server.stats()
        assert snapshot["counters"]["step_timed_out"] >= 1
        assert snapshot["counters"]["degraded_responses"] >= 1
        assert "step_timed_out" in response.value.monitor.transcript()

    def test_persistent_failure_opens_breaker_then_degrades(
            self, fault_stack):
        chatgraph, _ = fault_stack
        graph = social_network(25, 3, seed=2)
        with fault_server(chatgraph) as server:
            # 3 attempts per chain; threshold 3 -> first chain trips it
            first = execute_chain(server, graph,
                                  ["graph_density", "graph_summary"])
            record = first.value.record
            assert record.degraded[0].reason == "retries_exhausted"
            second = execute_chain(server, graph,
                                   ["graph_density", "graph_summary"])
            degraded = second.value.record.degraded[0]
            assert degraded.reason == "breaker_open"
            # partial results still flow: the healthy step ran
            assert second.value.record.steps[1].ok
            snapshot = server.stats()
        assert snapshot["counters"]["breaker_opened"] >= 1
        assert snapshot["breakers"]["graph_density"]["state"] == "open"
        assert "breaker_opened" in second.value.monitor.transcript() or \
            "breaker_opened" in first.value.monitor.transcript()

    def test_robustness_settings_restored_after_stop(self, fault_stack):
        chatgraph, _ = fault_stack
        before = (chatgraph.robustness_policy, chatgraph.breakers)
        server = fault_server(chatgraph)
        with server:
            assert chatgraph.robustness_policy is server.backend.policy
            assert chatgraph.breakers is server.breakers
        assert (chatgraph.robustness_policy, chatgraph.breakers) == before
