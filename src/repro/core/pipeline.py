"""The inference pipeline: prompt -> API chain (paper Fig. 1).

The stages — intent, graph-type routing, ANN retrieval, sequentialize,
generate, repair — are declared exactly once, as stage objects composed
into the :class:`~repro.core.stages.StageGraph` built by
:func:`~repro.core.stages.build_chat_graph`.
:meth:`ChatPipeline.process_batch` drives that graph over a list of
prompts and :meth:`ChatPipeline.process` is a batch of one through the
same body; cross-cutting concerns (timing, tracing, profiling, caching)
are middleware wrapping each stage invocation, assembled on attach and
absent from the hot path when detached.  See :mod:`repro.core.stages`
for the stage and middleware contracts and ``docs/ARCHITECTURE.md`` for
the tour.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..apis.chain import APIChain
from ..apis.registry import APIRegistry
from ..config import ChatGraphConfig
from ..llm.chain_model import ChainLanguageModel
from ..llm.intent import GraphTypePredictor, IntentClassifier, TypePrediction
from ..llm.prompts import Prompt
from ..retrieval.api_retriever import APIRetriever
from ..sequencer.serializer import GraphSequences, GraphSequentializer
from .fallbacks import FALLBACKS
from .stages import (
    CacheMiddleware,
    ProfilingMiddleware,
    StageContext,
    StageMiddleware,
    TimingMiddleware,
    TracingMiddleware,
    build_chat_graph,
)


@dataclass
class PipelineResult:
    """Everything the pipeline produced for one prompt."""

    prompt: Prompt
    intent: str
    graph_type: str | None
    type_prediction: TypePrediction | None
    retrieved: tuple[str, ...]
    sequences: GraphSequences | None
    chain: APIChain
    #: True when the generated chain failed validation and the fallback
    #: replaced it.
    used_fallback: bool
    #: Per-stage seconds, keyed by the graph's observed stage names.
    timings: dict[str, float] = field(default_factory=dict)


class ChatPipeline:
    """Wires intent, routing, retrieval, sequentializer and the model.

    The stage graph is built once in ``__init__``; attaching a tracer,
    profiler or cache bundle rebuilds the middleware chain (outermost
    timing, then profiling, tracing, caching innermost — so cache hits
    still emit timing entries and trace spans).
    """

    def __init__(self, registry: APIRegistry, retriever: APIRetriever,
                 model: ChainLanguageModel,
                 config: ChatGraphConfig | None = None) -> None:
        self.registry = registry
        self.retriever = retriever
        self.model = model
        self.config = config or ChatGraphConfig()
        self.sequentializer = GraphSequentializer(self.config.sequencer)
        self.type_predictor = GraphTypePredictor()
        self.intent_classifier = IntentClassifier()
        self.fallbacks = FALLBACKS
        #: The declarative stage graph every call drives.
        self.graph = build_chat_graph(
            registry, retriever, model, self.config, self.sequentializer,
            self.type_predictor, self.intent_classifier, self.fallbacks)
        self._caches: Any = None
        self._tracer: Any = None
        self._profiler: Any = None
        self._middlewares: tuple[StageMiddleware, ...] = ()
        self._rebuild_middlewares()

    # ------------------------------------------------------------------
    # cross-cutting attachments (each rebuilds the middleware chain)
    # ------------------------------------------------------------------
    @property
    def middlewares(self) -> tuple[StageMiddleware, ...]:
        """The active middleware chain, outermost first."""
        return self._middlewares

    def _rebuild_middlewares(self) -> None:
        chain: list[StageMiddleware] = [TimingMiddleware()]
        if self._profiler is not None:
            chain.append(ProfilingMiddleware(self._profiler))
        if self._tracer is not None:
            chain.append(TracingMiddleware(self._tracer))
        if self._caches is not None:
            chain.append(CacheMiddleware(
                {stage.cache_name: getattr(self._caches, stage.cache_name)
                 for stage in self.graph
                 if stage.cache_name is not None
                 and hasattr(self._caches, stage.cache_name)}))
        self._middlewares = tuple(chain)

    @property
    def tracer(self) -> Any:
        """Optional :class:`repro.obs.Tracer`; every :meth:`process`
        call then emits a ``pipeline`` span with one ``stage`` child per
        observed stage (set via ``ChatGraph.set_tracer``)."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: Any) -> None:
        self._tracer = tracer
        self._rebuild_middlewares()

    @property
    def profiler(self) -> Any:
        """Optional :class:`repro.obs.StageProfiler` accumulating
        per-stage wall/CPU totals across requests."""
        return self._profiler

    @profiler.setter
    def profiler(self, profiler: Any) -> None:
        self._profiler = profiler
        self._rebuild_middlewares()

    @property
    def caches(self) -> Any:
        """The attached :class:`repro.serve.cache.PipelineCaches`."""
        return self._caches

    def attach_caches(self, caches: Any) -> None:
        """Wire a cache bundle into the cache-declaring stages.

        Pass ``None`` to detach.  The bundle's ``retrieval`` cache
        backs the retrieval stage's :class:`~repro.core.stages.
        CacheMiddleware` memoization; the embedding cache additionally
        hooks the retriever's query embedder and the sequence cache the
        sequentializer, so repeated texts and graphs skip component
        work too.
        """
        self._caches = caches
        self.sequentializer.cache = (
            caches.sequences if caches is not None else None)
        self.retriever.embed_cache = (
            caches.embeddings if caches is not None else None)
        self._rebuild_middlewares()

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    @contextmanager
    def _root(self, ctxs: list[StageContext]) -> Iterator[None]:
        """The root span of one call.  With ``TracingMiddleware``, the
        only code that looks at how many contexts there are: the golden
        traces pin the single-request span shape byte for byte."""
        if self._tracer is None:
            yield
        elif len(ctxs) == 1:
            ctx = ctxs[0]
            with self._tracer.span("pipeline", kind="pipeline",
                                   has_graph=ctx.prompt.graph is not None
                                   ) as span:
                yield
                if ctx.failure is None:
                    span.set(intent=ctx.intent, graph_type=ctx.graph_type,
                             used_fallback=ctx.used_fallback,
                             chain=ctx.chain.render())
        else:
            with self._tracer.span("pipeline:batch", kind="pipeline",
                                   batch_size=len(ctxs)):
                yield

    def process(self, prompt: Prompt) -> PipelineResult:
        """Run every stage for ``prompt`` and return the proposed chain
        (a :meth:`process_batch` of one; a stage failure raises)."""
        return self.process_batch([prompt])[0]

    def process_batch(self, prompts: list[Prompt],
                      return_exceptions: bool = False
                      ) -> list[PipelineResult | BaseException]:
        """Run the pipeline for many prompts with shared stage work.

        Batching never changes a reply: each result is what the prompt
        would get alone.  What a batch shares is stage work (retrieval
        through one embed/search call, generation through one
        :func:`~repro.llm.decoding.greedy_decode_batch` fleet, intent
        via one scoring pass per distinct text, graph-type and
        sequentialize once per distinct graph object, repair via
        deduplicated registry validation), so per-result ``timings``
        report each prompt's share (stage seconds divided by the number
        of prompts in the invocation).

        Failure isolation: a stage exception degrades only the prompt
        that raised it (see :meth:`~repro.core.stages.StageGraph.run`).
        By default the first recorded failure re-raises, inside the
        root span so the span closes ``status=error`` — callers treat
        the batch as all-or-nothing.  With ``return_exceptions=True``
        the failed slots hold the exception instances instead and
        healthy prompts still return results, so servers can fail
        requests individually.
        """
        if not prompts:
            return []
        ctxs = [StageContext({"prompt": prompt}) for prompt in prompts]
        with self._root(ctxs):
            self.graph.run(ctxs, self._middlewares)
            if not return_exceptions:
                for ctx in ctxs:
                    if ctx.failure is not None:
                        raise ctx.failure
        return [self._result(ctx) if ctx.failure is None else ctx.failure
                for ctx in ctxs]

    @staticmethod
    def _result(ctx: StageContext) -> PipelineResult:
        return PipelineResult(
            prompt=ctx.prompt,
            intent=ctx.intent,
            graph_type=ctx.graph_type,
            type_prediction=ctx.type_prediction,
            retrieved=ctx.retrieved,
            sequences=ctx.sequences,
            chain=ctx.chain,
            used_fallback=ctx.used_fallback,
            timings=dict(ctx.timings),
        )
