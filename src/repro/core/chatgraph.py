"""The :class:`ChatGraph` facade — the public entry point of the library.

Typical use::

    from repro import ChatGraph
    from repro.graphs import social_network

    cg = ChatGraph.pretrained(seed=0)     # build + finetune offline
    response = cg.ask("write a brief report for G",
                      graph=social_network(50, 3))
    print(response.answer)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..apis.chain import APIChain
from ..apis.executor import (
    ChainContext,
    ChainExecutionRecord,
    ChainExecutor,
    ExecutionPolicy,
)
from ..apis.registry import APIRegistry, default_registry
from ..chem.database import MoleculeDatabase
from ..config import ChatGraphConfig
from ..errors import SessionError
from ..finetune.dataset import CorpusSpec, build_corpus
from ..finetune.trainer import FinetuneReport, Finetuner
from ..graphs.graph import Graph
from ..llm.chain_model import ChainLanguageModel, TrainingExample
from ..llm.prompts import Prompt
from ..llm.simulated import build_model
from ..obs.trace import span
from ..retrieval.api_retriever import APIRetriever
from .monitoring import ChainMonitor
from .pipeline import ChatPipeline, PipelineResult
from .reports import render_answer


@dataclass
class ChatResponse:
    """One answered prompt."""

    prompt: Prompt
    pipeline: PipelineResult
    record: ChainExecutionRecord | None
    answer: str
    monitor: ChainMonitor
    seconds: float = 0.0

    @property
    def chain(self) -> APIChain:
        return self.pipeline.chain

    def results(self) -> dict[str, Any]:
        return self.record.results_by_name() if self.record else {}


@dataclass
class ChatGraph:
    """LLM-based framework to interact with graphs (paper Fig. 1).

    Construct directly for full control, or via :meth:`pretrained` for a
    ready-to-chat instance finetuned on the synthetic corpus.
    """

    config: ChatGraphConfig = field(default_factory=ChatGraphConfig)
    registry: APIRegistry = field(default_factory=default_registry)
    database: MoleculeDatabase | None = None
    model: ChainLanguageModel | None = None

    def __post_init__(self) -> None:
        if self.database is None:
            self.database = MoleculeDatabase.builtin()
        self.retriever = APIRetriever(self.registry, self.config.retrieval)
        if self.model is None:
            self.model = build_model(self.config.llm.model,
                                     self.registry.names(),
                                     seed=self.config.llm.seed)
        self.pipeline = ChatPipeline(self.registry, self.retriever,
                                     self.model, self.config)
        self.executor = ChainExecutor(self.registry)
        #: Default robustness settings applied by :meth:`execute`
        #: (see :meth:`set_robustness`).
        self.robustness_policy: ExecutionPolicy | None = None
        self.breakers: Any = None
        #: Optional :class:`repro.obs.Tracer` threaded through the
        #: pipeline and every execution (see :meth:`set_tracer`).
        self.tracer: Any = None
        #: Optional :class:`repro.store.GraphCatalog`; when attached,
        #: :meth:`propose`/:meth:`ask` accept a catalog graph *name*
        #: wherever they accept a graph (see :meth:`use_catalog`).
        self.catalog: Any = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def pretrained(cls, config: ChatGraphConfig | None = None,
                   corpus_size: int = 600, seed: int = 0) -> "ChatGraph":
        """Build an instance and finetune it on the synthetic corpus.

        Trains on the train split with the token objective and no
        held-out evaluation: building the corpus and training take under
        a second together (call :meth:`finetune` for the matching
        objective).
        """
        instance = cls(config=config or ChatGraphConfig())
        train, __ = build_corpus(
            instance.registry, CorpusSpec(n_examples=corpus_size, seed=seed),
            retriever=instance.retriever)
        instance.finetune(train)
        return instance

    def finetune(self, corpus: CorpusSpec | list[TrainingExample],
                 objective: str = "token") -> FinetuneReport:
        """Finetune the chain model (see :mod:`repro.finetune`)."""
        if isinstance(corpus, CorpusSpec):
            train, test = build_corpus(self.registry, corpus,
                                       retriever=self.retriever)
        else:
            train, test = list(corpus), []
        tuner = Finetuner(self.model, self.config.finetune,
                          seed=self.config.llm.seed)
        return tuner.train(train, test, objective=objective)

    # ------------------------------------------------------------------
    # chat
    # ------------------------------------------------------------------
    def use_catalog(self, catalog: Any) -> None:
        """Attach a :class:`repro.store.GraphCatalog` (``None`` detaches).

        With a catalog attached, the ``graph`` argument of
        :meth:`propose` and :meth:`ask` may be a catalog graph *name*;
        it resolves to an immutable epoch-pinned view at call time.
        """
        self.catalog = catalog

    def resolve_graph(self, graph: Graph | str | None) -> Graph | None:
        """Resolve a graph argument: pass-through, or catalog lookup."""
        if not isinstance(graph, str):
            return graph
        if self.catalog is None:
            raise SessionError(
                f"graph named {graph!r} but no catalog attached; call "
                "use_catalog() first")
        return self.catalog.view(graph).graph

    def propose(self, text: str, graph: Graph | str | None = None,
                **attachments: Any) -> PipelineResult:
        """Generate (but do not execute) the API chain for a prompt."""
        prompt = Prompt(text=text, graph=self.resolve_graph(graph),
                        attachments=attachments)
        return self.pipeline.process(prompt)

    def propose_batch(self, prompts: list[Prompt],
                      return_exceptions: bool = False
                      ) -> list[PipelineResult | BaseException]:
        """:meth:`propose` for many prompts in one pipeline pass.

        Each stage's one body runs once over all the prompts (one
        embed/search/matmul/scoring call per stage instead of one per
        prompt) — the body :meth:`propose` runs over a single prompt —
        so the proposed chains are identical to processing each prompt
        alone.  This is what the serve layer's micro-batcher calls.
        ``return_exceptions`` is the per-prompt failure-
        isolation switch of :meth:`~repro.core.pipeline.ChatPipeline.
        process_batch`: failed slots then hold exception instances
        instead of aborting the whole batch.
        """
        return self.pipeline.process_batch(
            prompts, return_exceptions=return_exceptions)

    def set_robustness(self, policy: ExecutionPolicy | None = None,
                       breakers: Any = None) -> None:
        """Install default step policies / circuit breakers.

        ``policy`` is an :class:`~repro.apis.executor.ExecutionPolicy`
        (per-step timeouts, retries with backoff, fallbacks);
        ``breakers`` a shared breaker registry such as
        :class:`repro.serve.breaker.BreakerRegistry`.  Every subsequent
        :meth:`execute` / :meth:`ask` applies them unless overridden
        per call.
        """
        self.robustness_policy = policy
        self.breakers = breakers

    def set_tracer(self, tracer: Any) -> None:
        """Wire a :class:`repro.obs.Tracer` through the whole stack.

        The pipeline emits ``pipeline``/``stage`` spans, executions
        emit ``chain``/``step``/``attempt`` spans, and :meth:`ask`
        wraps the round trip in an ``op`` span — all nested under
        whatever span is active on the calling thread (the serve
        worker's ``request`` span, when served).  Pass ``None`` to
        detach.
        """
        self.tracer = tracer
        self.pipeline.tracer = tracer
        self.executor.tracer = tracer

    def execute(self, pipeline_result: PipelineResult,
                chain: APIChain | None = None,
                confirm: Callable[[str, Any], bool] | None = None,
                monitor: ChainMonitor | None = None,
                policy: ExecutionPolicy | None = None,
                breakers: Any = None,
                ) -> tuple[ChainExecutionRecord, ChainMonitor]:
        """Execute a (possibly user-edited) chain for a processed prompt."""
        chain = chain or pipeline_result.chain
        monitor = monitor or ChainMonitor()
        prompt = pipeline_result.prompt
        context = ChainContext(
            graph=prompt.graph,
            database=prompt.attachments.get("database", self.database),
            extras=dict(prompt.attachments),
            confirm=confirm,
        )
        # a per-call executor keeps concurrent execute() calls (the
        # repro.serve worker pool) from racing on a shared listener
        # list; ``self.executor`` stays for callers that attach their
        # own long-lived listeners
        executor = ChainExecutor(
            self.registry,
            policy=policy or self.robustness_policy,
            breakers=breakers if breakers is not None else self.breakers,
            tracer=self.tracer,
        )
        executor.add_listener(monitor)
        for listener in self.executor.listeners():
            executor.add_listener(listener)
        # the chat surface degrades gracefully: a failing step is
        # reported in the answer instead of aborting the dialog
        record = executor.execute(chain, context, stop_on_error=False)
        return record, monitor

    def ask(self, text: str, graph: Graph | str | None = None,
            confirm: Callable[[str, Any], bool] | None = None,
            **attachments: Any) -> ChatResponse:
        """Full round trip: propose, execute, render the answer."""
        start = time.perf_counter()
        with span(self.tracer, "ask", kind="op"):
            pipeline_result = self.propose(text, graph, **attachments)
            record, monitor = self.execute(pipeline_result,
                                           confirm=confirm)
        answer = render_answer(record)
        return ChatResponse(
            prompt=pipeline_result.prompt,
            pipeline=pipeline_result,
            record=record,
            answer=answer,
            monitor=monitor,
            seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    def enable_caches(self, caches: Any | None) -> None:
        """Attach (or with ``None`` detach) a serve-layer cache bundle.

        ``caches`` is a :class:`repro.serve.cache.PipelineCaches`; the
        stage graph's retrieval stage, the sequentializer and the
        retriever's query embedder each take their member of the bundle
        and become content-addressed lookups.
        """
        self.pipeline.attach_caches(caches)

    def require_model(self) -> ChainLanguageModel:
        """The chain model, asserting initialization (for type checkers)."""
        if self.model is None:
            raise SessionError("model not initialized")
        return self.model
