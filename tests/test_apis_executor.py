"""Tests for the monitored chain executor."""

import random
from collections import Counter, namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apis import (
    APIChain,
    APIRegistry,
    APISpec,
    Category,
    ChainContext,
    ChainExecutor,
    ChainNode,
    ExecutionPolicy,
    StepPolicy,
)
from repro.apis.executor import _summarize
from repro.errors import ChainExecutionError


@pytest.fixture()
def toy_registry():
    registry = APIRegistry()
    registry.register(APISpec(
        "ok_api", "always works", Category.GENERIC, lambda ctx: "fine"))
    registry.register(APISpec(
        "echo_api", "echoes its param", Category.GENERIC,
        lambda ctx, value=None: value, params={"value": None}))
    registry.register(APISpec(
        "boom_api", "always fails", Category.GENERIC,
        lambda ctx: (_ for _ in ()).throw(RuntimeError("boom"))))
    registry.register(APISpec(
        "reads_previous", "reads the previous result", Category.GENERIC,
        lambda ctx: ctx.latest("ok_api")))
    return registry


class TestExecution:
    def test_linear_execution(self, toy_registry):
        executor = ChainExecutor(toy_registry)
        record = executor.execute(APIChain.from_names(["ok_api"]),
                                  ChainContext())
        assert record.ok
        assert record.final_result == "fine"
        assert record.steps[0].seconds >= 0

    def test_params_forwarded(self, toy_registry):
        executor = ChainExecutor(toy_registry)
        chain = APIChain([ChainNode("echo_api", {"value": 99})])
        record = executor.execute(chain, ChainContext())
        assert record.final_result == 99

    def test_context_carries_results(self, toy_registry):
        executor = ChainExecutor(toy_registry)
        chain = APIChain.from_names(["ok_api", "reads_previous"])
        record = executor.execute(chain, ChainContext())
        assert record.final_result == "fine"

    def test_results_by_name(self, toy_registry):
        executor = ChainExecutor(toy_registry)
        record = executor.execute(
            APIChain.from_names(["ok_api", "echo_api"]), ChainContext())
        assert record.results_by_name() == {"ok_api": "fine",
                                            "echo_api": None}

    def test_failure_raises_by_default(self, toy_registry):
        executor = ChainExecutor(toy_registry)
        with pytest.raises(ChainExecutionError):
            executor.execute(APIChain.from_names(["boom_api"]),
                             ChainContext())

    def test_failure_continues_when_asked(self, toy_registry):
        executor = ChainExecutor(toy_registry)
        record = executor.execute(
            APIChain.from_names(["boom_api", "ok_api"]), ChainContext(),
            stop_on_error=False)
        assert not record.ok
        assert record.steps[0].error == "boom"
        assert record.steps[1].ok
        assert record.final_result == "fine"

    def test_failed_step_leaves_no_context_entry(self, toy_registry):
        context = ChainContext()
        executor = ChainExecutor(toy_registry)
        record = executor.execute(
            APIChain.from_names(["ok_api", "boom_api", "ok_api"]),
            context, stop_on_error=False)
        # only the successful steps write into the shared context
        assert sorted(context.results) == [0, 2]
        assert 1 not in context.step_names
        assert context.latest("boom_api") is None
        assert record.degraded[0].index == 1

    def test_final_result_skips_failed_steps(self, toy_registry):
        executor = ChainExecutor(toy_registry)
        record = executor.execute(
            APIChain.from_names(["ok_api", "boom_api"]), ChainContext(),
            stop_on_error=False)
        # the last *successful* step wins, not the last step
        assert not record.steps[-1].ok
        assert record.final_result == "fine"

    def test_continue_on_error_with_retries(self, toy_registry):
        from repro.apis import ExecutionPolicy, StepPolicy

        context = ChainContext()
        policy = ExecutionPolicy(default=StepPolicy(
            max_retries=2, backoff_base_seconds=0.0))
        executor = ChainExecutor(toy_registry, policy=policy,
                                 sleep=lambda s: None)
        record = executor.execute(
            APIChain.from_names(["boom_api", "ok_api"]), context,
            stop_on_error=False)
        assert record.steps[0].attempts == 3
        assert record.degraded[0].reason == "retries_exhausted"
        assert 0 not in context.results  # retries exhausted -> no entry
        assert record.final_result == "fine"


class TestEvents:
    def test_event_stream(self, toy_registry):
        events = []
        executor = ChainExecutor(toy_registry)
        executor.add_listener(events.append)
        executor.execute(APIChain.from_names(["ok_api", "ok_api"]),
                         ChainContext())
        kinds = [e.kind for e in events]
        assert kinds == ["chain_started", "step_started", "step_finished",
                         "step_started", "step_finished", "chain_finished"]

    def test_failure_events(self, toy_registry):
        events = []
        executor = ChainExecutor(toy_registry)
        executor.add_listener(events.append)
        with pytest.raises(ChainExecutionError):
            executor.execute(APIChain.from_names(["boom_api"]),
                             ChainContext())
        kinds = [e.kind for e in events]
        assert "step_failed" in kinds and "chain_failed" in kinds

    def test_remove_listener(self, toy_registry):
        events = []
        executor = ChainExecutor(toy_registry)
        executor.add_listener(events.append)
        executor.remove_listener(events.append)
        executor.execute(APIChain.from_names(["ok_api"]), ChainContext())
        assert events == []

    def test_event_render(self, toy_registry):
        events = []
        executor = ChainExecutor(toy_registry)
        executor.add_listener(events.append)
        executor.execute(APIChain.from_names(["ok_api"]), ChainContext())
        text = events[1].render()
        assert "step_started" in text and "ok_api" in text

    def test_listener_may_remove_itself_mid_emit(self, toy_registry):
        # regression: _emit used to iterate the live listener list, so a
        # listener unsubscribing during fan-out skipped its successor
        executor = ChainExecutor(toy_registry)
        first_seen, second_seen = [], []

        def one_shot(event):
            first_seen.append(event.kind)
            executor.remove_listener(one_shot)

        executor.add_listener(one_shot)
        executor.add_listener(lambda e: second_seen.append(e.kind))
        executor.execute(APIChain.from_names(["ok_api"]), ChainContext())
        assert first_seen == ["chain_started"]
        assert second_seen == ["chain_started", "step_started",
                               "step_finished", "chain_finished"]


class TestContext:
    def test_ask_defaults_to_approve(self):
        assert ChainContext().ask("ok?", None) is True

    def test_ask_uses_callback(self):
        asked = []

        def deny(question, payload):
            asked.append(question)
            return False

        context = ChainContext(confirm=deny)
        assert context.ask("sure?", {"x": 1}) is False
        assert asked == ["sure?"]

    def test_latest_returns_most_recent(self):
        context = ChainContext()
        context.results = {0: "old", 2: "new"}
        context.step_names = {0: "api_x", 2: "api_x"}
        assert context.latest("api_x") == "new"
        assert context.latest("missing") is None


Pair = namedtuple("Pair", "left right")

#: Leaves a step result may hold: nan/inf floats, non-ASCII text (and
#: quotes, which pick the repr's quote character) and long strings.
leaves = (st.none() | st.booleans() | st.integers()
          | st.floats(allow_nan=True, allow_infinity=True)
          | st.text(alphabet=st.characters(), max_size=8)
          | st.text(alphabet="ab'\"\\é\n", min_size=60, max_size=120))
hashable = st.recursive(
    leaves, lambda inner: st.tuples(inner) | st.tuples(inner, inner)
    | st.frozensets(inner, max_size=3), max_leaves=6)
results = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=6)
                   | st.tuples(inner) | st.tuples(inner, inner, inner)
                   | st.dictionaries(hashable, inner, max_size=5)
                   | st.sets(hashable, max_size=4)
                   | st.frozensets(hashable, max_size=4)
                   | st.dictionaries(st.text(max_size=4), st.integers(),
                                     max_size=4).map(Counter)
                   | st.tuples(inner, inner).map(lambda p: Pair(*p))),
    max_leaves=40)


class TestSummary:
    @given(result=results)
    @settings(max_examples=400, deadline=None)
    def test_bounded_summary_is_the_cut_repr(self, result):
        text = repr(result)
        expected = text if len(text) <= 70 else text[:67] + "..."
        assert _summarize(result) == expected

    @given(result=results, limit=st.integers(4, 200))
    @settings(max_examples=200, deadline=None)
    def test_any_limit_cuts_like_the_repr(self, result, limit):
        text = repr(result)
        expected = text if len(text) <= limit else text[:limit - 3] + "..."
        assert _summarize(result, limit) == expected

    def test_a_container_met_inside_itself(self):
        looped = [1, {"x": None}]
        looped[1]["x"] = looped
        boxed = ([],)
        boxed[0].append(boxed)
        for value in (looped, boxed, [looped] * 9):
            for limit in (8, 70, 500):
                text = repr(value)
                assert _summarize(value, limit) == (
                    text if len(text) <= limit
                    else text[:limit - 3] + "...")

    def test_a_large_result_is_not_rendered_whole(self):
        rendered = []

        class Leaf:
            def __repr__(self):
                rendered.append(self)
                return "leaf"

        result = {"rows": [Leaf() for _ in range(10_000)]}
        assert _summarize(result) == repr(result)[:67] + "..."
        rendered.clear()
        _summarize(result)
        assert len(rendered) < 20


class TestJitterRng:
    def test_seeded_retries_keep_their_delays(self, toy_registry):
        slept = []
        policy = ExecutionPolicy(default=StepPolicy(
            max_retries=3, backoff_base_seconds=0.01,
            jitter_fraction=0.5), seed=5)
        executor = ChainExecutor(toy_registry, policy=policy,
                                 sleep=slept.append)
        executor.execute(APIChain.from_names(["ok_api", "boom_api"]),
                         ChainContext(), stop_on_error=False)
        # the delays drawn when the RNG was seeded from (seed, api,
        # step index) before the first attempt, not on the first retry
        assert slept == [0.013204311501920574, 0.02609098949439665,
                         0.046918177933611326]

    def test_a_chain_without_retries_seeds_no_rng(self, toy_registry,
                                                  monkeypatch):
        built = []

        class Spy(random.Random):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(random, "Random", Spy)
        policy = ExecutionPolicy(default=StepPolicy(max_retries=3))
        executor = ChainExecutor(toy_registry, policy=policy,
                                 sleep=lambda s: None)
        record = executor.execute(
            APIChain.from_names(["ok_api", "echo_api", "reads_previous"]),
            ChainContext())
        assert record.ok and built == []
        executor.execute(APIChain.from_names(["boom_api"]), ChainContext(),
                         stop_on_error=False)
        assert len(built) == 1  # seeded once, on the first retry
