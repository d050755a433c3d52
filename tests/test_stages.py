"""The stage-graph runtime: validation, middleware, type hints."""

import inspect
import typing

import pytest

from repro.config import ChatGraphConfig
from repro.errors import ConfigError
from repro.llm.prompts import Prompt
from repro.obs import StageProfiler, Tracer
from repro.serve.cache import LRUCache, PipelineCaches
from repro.core import chatgraph as chatgraph_module
from repro.core import pipeline as pipeline_module
from repro.core import stages as stages_module
from repro.core.pipeline import ChatPipeline
from repro.core.stages import (
    CacheMiddleware,
    CANONICAL_STAGE_NAMES,
    Stage,
    StageContext,
    StageGraph,
    StageMiddleware,
    TimingMiddleware,
    TracingMiddleware,
)


class _Producer(Stage):
    name = "produce"
    inputs = ("seed",)
    outputs = ("value",)

    def run(self, ctxs):
        for ctx in ctxs:
            ctx["value"] = ctx.seed * 2


class _Consumer(Stage):
    name = "consume"
    inputs = ("value",)
    outputs = ("result",)

    def run(self, ctxs):
        for ctx in ctxs:
            ctx["result"] = ctx.value + 1


class TestStageGraphValidation:
    def test_valid_graph_runs(self):
        graph = StageGraph([_Producer(), _Consumer()], seeds=("seed",))
        [ctx] = graph.run([StageContext({"seed": 3})])
        assert ctx.result == 7
        assert graph.stage_names == ("produce", "consume")

    def test_missing_input_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="consume.*value"):
            StageGraph([_Consumer()], seeds=("seed",))

    def test_order_matters(self):
        with pytest.raises(ConfigError):
            StageGraph([_Consumer(), _Producer()], seeds=("seed",))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            StageGraph([_Producer(), _Producer()], seeds=("seed",))

    def test_empty_graph_rejected(self):
        with pytest.raises(ConfigError):
            StageGraph([])

    def test_cache_output_must_be_an_output(self):
        class Bad(_Producer):
            cache_name = "x"
            cache_output = "not_an_output"

        with pytest.raises(ConfigError, match="memoizes"):
            StageGraph([Bad()], seeds=("seed",))

    def test_chat_graph_dataflow_is_valid(self, chatgraph):
        graph = chatgraph.pipeline.graph
        assert graph.stage_names == CANONICAL_STAGE_NAMES
        # the repair stage stays out of the observability contract
        assert set(graph.stage_names) - set(graph.observed_stage_names) \
            == {"repair"}

    def test_batch_default_maps_scalar(self):
        """A plain loop body needs no failure handling of its own: the
        graph retries a raising invocation one context at a time."""
        class Picky(_Consumer):
            def run(self, ctxs):
                for ctx in ctxs:
                    if ctx.value == 4:
                        raise ValueError(ctx.value)
                    ctx["result"] = ctx.value + 1

        graph = StageGraph([_Producer(), Picky()], seeds=("seed",))
        ctxs = [StageContext({"seed": i}) for i in range(4)]
        assert graph.run(ctxs) is ctxs
        assert [ctx.get("result") for ctx in ctxs] == [1, 3, None, 7]
        assert [type(ctx.failure) for ctx in ctxs] == \
            [type(None), type(None), ValueError, type(None)]


class _Recorder(StageMiddleware):
    """Logs enter/exit order to verify onion nesting."""

    def __init__(self, tag, log):
        self.tag = tag
        self.log = log

    def run(self, stage, ctxs, call):
        self.log.append(f"{self.tag}>{stage.name}")
        call(ctxs)
        self.log.append(f"{self.tag}<{stage.name}")


class TestMiddlewareComposition:
    def test_onion_ordering_outermost_first(self):
        log = []
        graph = StageGraph([_Producer()], seeds=("seed",))
        graph.run([StageContext({"seed": 1})],
                  [_Recorder("a", log), _Recorder("b", log)])
        assert log == ["a>produce", "b>produce", "b<produce", "a<produce"]

    def test_timing_records_observed_stages_only(self):
        class Silent(_Consumer):
            observed = False

        graph = StageGraph([_Producer(), Silent()], seeds=("seed",))
        [ctx] = graph.run([StageContext({"seed": 1})],
                          [TimingMiddleware()])
        assert set(ctx.timings) == {"produce"}
        assert ctx.timings["produce"] >= 0.0

    def test_batch_timing_is_amortized_share(self):
        ticks = iter([0.0, 2.0, 10.0, 13.0])
        timing = TimingMiddleware(clock=lambda: next(ticks))
        graph = StageGraph([_Producer()], seeds=("seed",))
        ctxs = [StageContext({"seed": i}) for i in range(4)]
        graph.run(ctxs, [timing])
        # every item gets the same share of the invocation ...
        assert [ctx.timings["produce"] for ctx in ctxs] == [0.5] * 4
        # ... and alone, a context's share is the whole
        [ctx] = graph.run([StageContext({"seed": 9})], [timing])
        assert ctx.timings["produce"] == 3.0

    def test_cache_hit_skips_stage_but_not_outer_middleware(self):
        calls = []

        class Cached(Stage):
            name = "cached"
            inputs = ("seed",)
            outputs = ("value",)
            cache_name = "values"
            cache_output = "value"

            def run(self, ctxs):
                for ctx in ctxs:
                    calls.append(ctx.seed)
                    ctx["value"] = ctx.seed * 10

            def cache_key(self, ctx):
                return ctx.seed

        log = []
        cache = LRUCache(8)
        graph = StageGraph([Cached()], seeds=("seed",))
        chain = [TimingMiddleware(), _Recorder("t", log),
                 CacheMiddleware({"values": cache})]
        [first] = graph.run([StageContext({"seed": 5})], chain)
        [second] = graph.run([StageContext({"seed": 5})], chain)
        assert calls == [5]  # body ran once
        assert first.value == second.value == 50
        # the hit still flowed through outer middleware and timing
        assert log == ["t>cached", "t<cached"] * 2
        assert "cached" in second.timings

    def test_cached_falsy_value_is_a_hit(self):
        """The MISS sentinel keeps a cached ``()`` distinct from absent."""
        calls = []

        class Cached(Stage):
            name = "cached"
            inputs = ("seed",)
            outputs = ("value",)
            cache_name = "values"
            cache_output = "value"

            def run(self, ctxs):
                for ctx in ctxs:
                    calls.append(ctx.seed)
                    ctx["value"] = ()

            def cache_key(self, ctx):
                return ctx.seed

        cache = LRUCache(8)
        cache.put(1, ())
        graph = StageGraph([Cached()], seeds=("seed",))
        ctxs = [StageContext({"seed": s}) for s in (1, 1, 2)]
        graph.run(ctxs, [CacheMiddleware({"values": cache})])
        assert calls == [2]  # only the genuinely absent key ran
        assert all(ctx.value == () for ctx in ctxs)

    def test_batch_cache_runs_stage_on_miss_subset_only(self):
        batches = []

        class Cached(Stage):
            name = "cached"
            inputs = ("seed",)
            outputs = ("value",)
            cache_name = "values"
            cache_output = "value"

            def run(self, ctxs):
                batches.append([ctx.seed for ctx in ctxs])
                for ctx in ctxs:
                    ctx["value"] = ctx.seed * 10

            def cache_key(self, ctx):
                return ctx.seed

        cache = LRUCache(8)
        cache.put(2, 20)
        graph = StageGraph([Cached()], seeds=("seed",))
        ctxs = [StageContext({"seed": s}) for s in (1, 2, 3)]
        graph.run(ctxs, [CacheMiddleware({"values": cache})])
        assert batches == [[1, 3]]
        assert [ctx.value for ctx in ctxs] == [10, 20, 30]

    def test_may_cache_false_is_never_stored(self):
        class Degraded(Stage):
            name = "degraded"
            inputs = ("seed",)
            outputs = ("value",)
            cache_name = "values"
            cache_output = "value"

            def run(self, ctxs):
                for ctx in ctxs:
                    ctx["value"] = ()

            def cache_key(self, ctx):
                return ctx.seed

            def may_cache(self, ctx):
                return False

        cache = LRUCache(8)
        graph = StageGraph([Degraded()], seeds=("seed",))
        graph.run([StageContext({"seed": 9})],
                  [CacheMiddleware({"values": cache})])
        assert len(cache) == 0


class TestPipelineMiddlewareWiring:
    """The ChatPipeline assembles its chain from what is attached."""

    def _types(self, pipeline):
        return [type(mw) for mw in pipeline.middlewares]

    def test_detached_pipeline_has_only_timing(self, chatgraph):
        # The session fixture may arrive with attachments from earlier
        # test modules; detach, assert the bare chain, then restore.
        pipeline = chatgraph.pipeline
        prior = (pipeline.tracer, pipeline.profiler, pipeline.caches)
        try:
            chatgraph.set_tracer(None)
            chatgraph.set_profiler(None)
            chatgraph.enable_caches(None)
            assert self._types(pipeline) == [TimingMiddleware]
        finally:
            chatgraph.set_tracer(prior[0])
            chatgraph.set_profiler(prior[1])
            chatgraph.enable_caches(prior[2])

    def test_attachments_rebuild_the_chain(self, chatgraph):
        pipeline = chatgraph.pipeline
        tracer = Tracer(seed=0)
        profiler = StageProfiler()
        caches = PipelineCaches.with_sizes()
        try:
            chatgraph.set_tracer(tracer)
            chatgraph.set_profiler(profiler)
            chatgraph.enable_caches(caches)
            from repro.core.stages import ProfilingMiddleware
            assert self._types(pipeline) == [
                TimingMiddleware, ProfilingMiddleware, TracingMiddleware,
                CacheMiddleware]
        finally:
            chatgraph.set_tracer(None)
            chatgraph.set_profiler(None)
            chatgraph.enable_caches(None)
        # detaching leaves zero overhead objects on the hot path
        assert self._types(pipeline) == [TimingMiddleware]
        assert pipeline.sequentializer.cache is None
        assert pipeline.retriever.embed_cache is None

    def test_cache_hit_request_still_traced_and_timed(self, chatgraph,
                                                      social_graph):
        pipeline = chatgraph.pipeline
        tracer = Tracer(seed=0)
        caches = PipelineCaches.with_sizes()
        prompt_text = "write a brief report for G"
        try:
            chatgraph.enable_caches(caches)
            chatgraph.set_tracer(tracer)
            first = pipeline.process(Prompt(prompt_text, social_graph))
            warm = caches.retrieval.stats().hits
            second = pipeline.process(Prompt(prompt_text, social_graph))
        finally:
            chatgraph.set_tracer(None)
            chatgraph.enable_caches(None)
        assert caches.retrieval.stats().hits > warm
        assert second.chain.api_names() == first.chain.api_names()
        assert set(second.timings) == \
            set(pipeline.graph.observed_stage_names)
        # both requests emitted the full per-stage span set
        stage_spans = [s for s in tracer.finished_spans()
                       if s.kind == "stage"]
        per_request = len(pipeline.graph.observed_stage_names)
        assert len(stage_spans) == 2 * per_request

    def test_repair_stage_emits_no_span_or_timing(self, chatgraph,
                                                  social_graph):
        pipeline = chatgraph.pipeline
        tracer = Tracer(seed=0)
        try:
            chatgraph.set_tracer(tracer)
            result = pipeline.process(
                Prompt("write a brief report for G", social_graph))
        finally:
            chatgraph.set_tracer(None)
        assert "repair" not in result.timings
        names = {s.name for s in tracer.finished_spans()
                 if s.kind == "stage"}
        assert names == {f"stage:{n}"
                         for n in pipeline.graph.observed_stage_names}


class TestTypeHintsResolve:
    """Regression for the old ``Iterator[Span | NullSpan]`` annotation
    that referenced a never-imported name (a latent
    ``typing.get_type_hints`` failure): every public symbol of the
    pipeline modules must resolve its hints."""

    @pytest.mark.parametrize("module", [pipeline_module, stages_module,
                                        chatgraph_module],
                             ids=lambda m: m.__name__)
    def test_public_symbols_resolve(self, module):
        for name in dir(module):
            if name.startswith("_"):
                continue
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == \
                    module.__name__:
                typing.get_type_hints(obj)
            elif inspect.isclass(obj) and obj.__module__ == \
                    module.__name__:
                typing.get_type_hints(obj)
                for __, member in inspect.getmembers(
                        obj, inspect.isfunction):
                    typing.get_type_hints(member)
                for __, prop in inspect.getmembers(
                        obj, lambda m: isinstance(m, property)):
                    if prop.fget is not None:
                        typing.get_type_hints(prop.fget)
