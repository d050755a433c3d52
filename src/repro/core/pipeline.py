"""The inference pipeline: prompt -> API chain (paper Fig. 1).

The stages — intent, graph-type routing, ANN retrieval, sequentialize,
generate, repair — are declared exactly once, as stage objects composed
into the :class:`~repro.core.stages.StageGraph` built by
:func:`~repro.core.stages.build_chat_graph`.  :meth:`ChatPipeline.process`
and :meth:`ChatPipeline.process_batch` are thin entry points driving
that one graph down its scalar and vectorized paths; cross-cutting
concerns (timing, tracing, profiling, caching) are middleware wrapping
each stage invocation, assembled on attach and absent from the hot path
when detached.  See :mod:`repro.core.stages` for the stage and
middleware contracts and ``docs/ARCHITECTURE.md`` for the tour.
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
from ..obs.trace import NULL_SPAN, NullSpan, Span
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
        #: The declarative stage graph both entry points drive.
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
    def _root(self, prompt: Prompt) -> Iterator[Span | NullSpan]:
        if self._tracer is None:
            yield NULL_SPAN
        else:
            with self._tracer.span("pipeline", kind="pipeline",
                                   has_graph=prompt.graph is not None
                                   ) as span:
                yield span

    def process(self, prompt: Prompt) -> PipelineResult:
        """Run every stage for ``prompt`` and return the proposed chain."""
        with self._root(prompt) as root:
            ctx = StageContext({"prompt": prompt})
            self.graph.run(ctx, self._middlewares)
            root.set(intent=ctx.intent, graph_type=ctx.graph_type,
                     used_fallback=ctx.used_fallback,
                     chain=ctx.chain.render())
            return self._result(ctx)

    def process_batch(self, prompts: list[Prompt],
                      return_exceptions: bool = False
                      ) -> list[PipelineResult | BaseException]:
        """Run the pipeline for many prompts with shared batched stages.

        Produces exactly the chains ``[self.process(p) for p in
        prompts]`` would — the same stage graph runs down its
        vectorized path: every stage now has a genuinely batched body
        (retrieval through the batched embed/search kernels, generation
        through :func:`~repro.llm.decoding.greedy_decode_batch`, intent
        via one shared scoring pass, graph-type and sequentialize via
        content-keyed graph grouping, repair via deduplicated registry
        validation), each result-identical to its scalar counterpart.
        Per-result ``timings`` report each prompt's amortized share
        (stage seconds divided by batch size), since the stage work is
        genuinely shared.

        Failure isolation follows the scalar path: a stage exception
        degrades only the prompt that raised it (see
        :meth:`~repro.core.stages.StageGraph.run_batch`).  By default
        the first recorded failure re-raises — the historical contract,
        where callers treat the batch as all-or-nothing.  With
        ``return_exceptions=True`` the failed slots hold the exception
        instances instead and healthy prompts still return results, so
        servers can fail requests individually.
        """
        if not prompts:
            return []
        ctxs = [StageContext({"prompt": prompt}) for prompt in prompts]
        if self._tracer is None:
            self.graph.run_batch(ctxs, self._middlewares)
        else:
            with self._tracer.span("pipeline:batch", kind="pipeline",
                                   batch_size=len(prompts)):
                self.graph.run_batch(ctxs, self._middlewares)
        results: list[PipelineResult | BaseException] = []
        for ctx in ctxs:
            if ctx.failure is not None:
                if not return_exceptions:
                    raise ctx.failure
                results.append(ctx.failure)
            else:
                results.append(self._result(ctx))
        return results

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

    @staticmethod
    def _fallback(graph_type: str | None, intent: str) -> tuple[str, ...]:
        """Legacy lookup, delegating to the one fallback registry."""
        return FALLBACKS.chain_for(graph_type, intent)
