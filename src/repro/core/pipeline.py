"""The inference pipeline: prompt -> API chain (paper Fig. 1).

The stages — intent, graph-type routing, ANN retrieval, sequentialize,
generate, repair — are declared exactly once, as stage objects composed
into the :class:`~repro.core.stages.StageGraph` built by
:func:`~repro.core.stages.build_chat_graph`.
:meth:`ChatPipeline.process_batch` drives that graph over a list of
prompts and :meth:`ChatPipeline.process` is a batch of one through the
same body.  The graph's runner times every observed stage and, with a
tracer attached, spans it; the three caches of an attached bundle are
attributes on the components that own the work.  See
:mod:`repro.core.stages` for the stage contract and
``docs/ARCHITECTURE.md`` for the tour.
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
from .stages import RetrieveStage, StageContext, build_chat_graph


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

    The stage graph is built once in ``__init__``.  :attr:`tracer` and
    :attr:`caches` are plain attributes, ``None`` while detached.
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
        self._retrieve_stage = next(
            stage for stage in self.graph
            if isinstance(stage, RetrieveStage))
        #: Optional :class:`repro.obs.Tracer`; every :meth:`process`
        #: call then emits a ``pipeline`` span with one ``stage`` child
        #: per observed stage (set via ``ChatGraph.set_tracer``).
        self.tracer: Any = None
        #: The attached :class:`repro.serve.cache.PipelineCaches` (set
        #: via :meth:`attach_caches`, which also wires its members).
        self.caches: Any = None

    def attach_caches(self, caches: Any) -> None:
        """Hand each cache of the bundle to the component whose work it
        saves.  Pass ``None`` to detach.

        ``retrieval`` memoizes the retrieval stage, ``embeddings`` the
        retriever's query embedder (consulted for retrieval misses
        only) and ``sequences`` the sequentializer, so repeated texts
        and graphs skip the work wherever it would be done.
        """
        self.caches = caches
        detach = caches is None
        self._retrieve_stage.cache = None if detach else caches.retrieval
        self.sequentializer.cache = None if detach else caches.sequences
        self.retriever.embed_cache = None if detach else caches.embeddings

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    @contextmanager
    def _root(self, ctxs: list[StageContext]) -> Iterator[None]:
        """The root span of one call.  With the stage spans of
        :meth:`~repro.core.stages.StageGraph.run`, the only code that
        looks at how many contexts there are: the golden traces pin the
        single-request span shape byte for byte."""
        if self.tracer is None:
            yield
        elif len(ctxs) == 1:
            ctx = ctxs[0]
            with self.tracer.span("pipeline", kind="pipeline",
                                  has_graph=ctx.prompt.graph is not None
                                  ) as span:
                yield
                if ctx.failure is None:
                    span.set(intent=ctx.intent, graph_type=ctx.graph_type,
                             used_fallback=ctx.used_fallback,
                             chain=ctx.chain.render())
        else:
            with self.tracer.span("pipeline:batch", kind="pipeline",
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
            self.graph.run(ctxs, self.tracer)
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
