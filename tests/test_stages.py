"""The stage-graph runtime: validation, the observing runner, the
retrieval stage's cache, type hints."""

import inspect
import typing
from types import SimpleNamespace

import pytest

from repro.config import ChatGraphConfig
from repro.errors import ConfigError
from repro.llm.prompts import Prompt
from repro.obs import Tracer
from repro.serve.cache import LRUCache, PipelineCaches
from repro.core import chatgraph as chatgraph_module
from repro.core import pipeline as pipeline_module
from repro.core import stages as stages_module
from repro.core.stages import (
    CANONICAL_STAGE_NAMES,
    RetrieveStage,
    Stage,
    StageContext,
    StageGraph,
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


class _StubRetriever:
    """Stands in for ``APIRetriever.retrieve_batch``: one hit named
    after the text, ``None`` (unembeddable) for texts in ``degraded``,
    no hits for texts in ``empty``; records the texts of each call."""

    def __init__(self, degraded=(), empty=()):
        self.degraded = degraded
        self.empty = empty
        self.calls = []

    def retrieve_batch(self, texts, k, categories_per):
        self.calls.append(list(texts))
        return [None if text in self.degraded
                else [] if text in self.empty
                else [SimpleNamespace(name=f"api_{text}")]
                for text in texts]


def _retrieve_graph(retriever, cache):
    stage = RetrieveStage(retriever, ChatGraphConfig())
    stage.cache = cache
    graph = StageGraph([stage], seeds=("prompt", "categories"))
    return stage, graph


def _retrieve_ctxs(*texts):
    return [StageContext({"prompt": Prompt(text), "categories": ("c",)})
            for text in texts]


def _retrieve_key(stage, text):
    return (text, stage.top_k, ("c",))


class TestStageObservation:
    """What observes a stage invocation: the runner's timing and
    tracing around the body, ``RetrieveStage``'s own cache inside it."""

    def test_timing_records_observed_stages_only(self):
        class Silent(_Consumer):
            observed = False

        graph = StageGraph([_Producer(), Silent()], seeds=("seed",))
        [ctx] = graph.run([StageContext({"seed": 1})])
        assert set(ctx.timings) == {"produce"}
        assert ctx.timings["produce"] >= 0.0

    def test_batch_timing_is_amortized_share(self):
        ticks = iter([0.0, 2.0, 10.0, 13.0])
        graph = StageGraph([_Producer()], seeds=("seed",),
                           clock=lambda: next(ticks))
        ctxs = [StageContext({"seed": i}) for i in range(4)]
        graph.run(ctxs)
        # every item gets the same share of the invocation ...
        assert [ctx.timings["produce"] for ctx in ctxs] == [0.5] * 4
        # ... and alone, a context's share is the whole
        [ctx] = graph.run([StageContext({"seed": 9})])
        assert ctx.timings["produce"] == 3.0

    def test_cache_hit_skips_retriever_but_is_timed_and_traced(self):
        """A hit skips the retriever but is still timed and traced."""
        retriever = _StubRetriever()
        stage, graph = _retrieve_graph(retriever, LRUCache(8))
        tracer = Tracer(seed=0)
        [first] = graph.run(_retrieve_ctxs("a"), tracer)
        [second] = graph.run(_retrieve_ctxs("a"), tracer)
        assert retriever.calls == [["a"]]  # the retriever ran once
        assert first.retrieved == second.retrieved == ("api_a",)
        assert second.retrieval_ok is True
        assert "retrieval" in second.timings
        spans = tracer.finished_spans()
        assert [span.name for span in spans] == ["stage:retrieval"] * 2
        assert [span.attrs for span in spans] == [{"n_retrieved": 1}] * 2

    def test_cached_falsy_value_is_a_hit(self):
        """A cached ``()`` (no API matched) is distinct from absent."""
        retriever = _StubRetriever(empty=("b",))
        stage, graph = _retrieve_graph(retriever, LRUCache(8))
        stage.cache.put(_retrieve_key(stage, "a"), ())
        ctxs = _retrieve_ctxs("a", "a", "b")
        graph.run(ctxs)
        assert retriever.calls == [["b"]]  # only the absent key ran
        assert all(ctx.retrieved == () and ctx.retrieval_ok
                   for ctx in ctxs)
        # the fresh () was stored like any other result
        assert stage.cache.get(_retrieve_key(stage, "b")) == ()

    def test_batch_cache_runs_stage_on_miss_subset_only(self):
        retriever = _StubRetriever()
        stage, graph = _retrieve_graph(retriever, LRUCache(8))
        stage.cache.put(_retrieve_key(stage, "b"), ("warm",))
        ctxs = _retrieve_ctxs("a", "b", "c")
        graph.run(ctxs)
        assert retriever.calls == [["a", "c"]]
        assert [ctx.retrieved for ctx in ctxs] == \
            [("api_a",), ("warm",), ("api_c",)]
        # one get per context, one put per miss
        stats = stage.cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 2, 3)

    def test_degraded_result_is_never_stored(self):
        """A degraded result (``retrieval_ok=False``) is never stored."""
        retriever = _StubRetriever(degraded=("?!",))
        stage, graph = _retrieve_graph(retriever, LRUCache(8))
        [ctx] = graph.run(_retrieve_ctxs("?!"))
        assert ctx.retrieved == () and ctx.retrieval_ok is False
        assert stage.cache.stats().size == 0


class TestPipelineAttachments:
    """What is attached to the ChatPipeline is a handful of attributes."""

    def _attached(self, pipeline):
        [retrieve] = [stage for stage in pipeline.graph
                      if isinstance(stage, RetrieveStage)]
        return (pipeline.tracer, pipeline.caches, retrieve.cache,
                pipeline.sequentializer.cache)

    def test_detached_pipeline_has_only_timing(self, chatgraph,
                                               social_graph):
        # The session fixture may arrive with attachments from earlier
        # test modules; detach, assert the bare state, then restore.
        pipeline = chatgraph.pipeline
        prior = (pipeline.tracer, pipeline.caches)
        try:
            chatgraph.set_tracer(None)
            chatgraph.enable_caches(None)
            assert self._attached(pipeline) == (None,) * 4
            result = pipeline.process(
                Prompt("write a brief report for G", social_graph))
            assert tuple(result.timings) == \
                pipeline.graph.observed_stage_names
        finally:
            chatgraph.set_tracer(prior[0])
            chatgraph.enable_caches(prior[1])

    def test_attach_and_detach_set_and_clear_the_attributes(self, chatgraph):
        """Attach/detach sets and clears ``pipeline.tracer`` and both
        cache attributes, each on the owner of the work."""
        pipeline = chatgraph.pipeline
        tracer = Tracer(seed=0)
        caches = PipelineCaches.with_sizes()
        try:
            chatgraph.set_tracer(tracer)
            chatgraph.enable_caches(caches)
            assert self._attached(pipeline) == (
                tracer, caches, caches.retrieval, caches.sequences)
        finally:
            chatgraph.set_tracer(None)
            chatgraph.enable_caches(None)
        assert self._attached(pipeline) == (None,) * 4

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
