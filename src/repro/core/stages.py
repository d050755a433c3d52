"""Stage-graph pipeline runtime: declarative stages and one runner.

The paper's Fig. 1 pipeline (intent -> graph-type routing -> ANN
retrieval -> sequentialize -> generate -> repair) is declared here
exactly once.  Each stage is an object with a name, the context keys it
reads and writes, and one body, :meth:`Stage.run`, over a sequence of
contexts — a single request is a batch of one through the same body.
Stages compose into a :class:`StageGraph` that validates the dataflow
at construction time, so a stage reading a key nothing produces fails
fast instead of at request time.

Observing a stage is the runner's job, not the body's:
:meth:`StageGraph.run` records per-stage wall seconds into each
context's ``timings`` (always) and opens one ``stage`` span on a
:class:`repro.obs.Tracer` (iff one is passed).  Memoization lives with
the work it saves: :class:`RetrieveStage` consults its own ``cache``
attribute, exactly as the sequentializer and the retriever's query
embedder consult theirs.

Every stage name in the system lives in this module — other layers
derive stage lists from the graph (``StageGraph.stage_names``) or from
result timings, never from hand-written copies.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Sequence

from ..apis.chain import APIChain
from ..apis.registry import APIRegistry, Category
from ..config import ChatGraphConfig
from ..errors import ChainError, ConfigError
from ..llm.chain_model import ChainLanguageModel, GenerationState
from ..llm.decoding import beam_decode, greedy_decode_batch
from ..llm.intent import (
    CATEGORY_ROUTING,
    GraphTypePredictor,
    IntentClassifier,
)
from ..retrieval.api_retriever import APIRetriever
from ..sequencer.serializer import GraphSequentializer
from .fallbacks import FallbackRegistry


class StageContext:
    """One prompt's mutable dataflow record through the stage graph.

    Keys are written with ``ctx[key] = value`` (stage bodies) and read
    either way — ``ctx[key]`` or attribute-style ``ctx.key``.  The
    ``timings`` dict is the runner's, kept apart from the dataflow
    keys.  ``failure`` records the exception that aborted this
    context's flow (``None`` while healthy): a context that fails
    mid-stage is parked instead of poisoning its batchmates, and the
    pipeline entry point re-raises (or returns) the recorded exception
    per context.
    """

    __slots__ = ("data", "timings", "failure")

    def __init__(self, data: dict[str, Any] | None = None) -> None:
        self.data: dict[str, Any] = dict(data or {})
        self.timings: dict[str, float] = {}
        self.failure: BaseException | None = None

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    def __setitem__(self, key: str, value: Any) -> None:
        self.data[key] = value

    def __contains__(self, key: str) -> bool:
        return key in self.data

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)

    def __getattr__(self, key: str) -> Any:
        try:
            return self.data[key]
        except KeyError:
            raise AttributeError(
                f"stage context has no key {key!r}; present keys: "
                f"{sorted(self.data)}") from None

    def __repr__(self) -> str:
        return f"StageContext(keys={sorted(self.data)})"


class Stage:
    """One declared pipeline stage.

    Subclasses set :attr:`name`, :attr:`inputs` and :attr:`outputs` and
    implement :meth:`run` over a sequence of contexts — a plain loop, or
    one shared kernel call when the work genuinely batches.  A body
    that raises is retried one context at a time by
    :meth:`StageGraph.run`, so it needs no failure handling of its own.
    Two hooks tell the runner how to observe the stage:

    * :attr:`observed` — ``False`` exempts the stage from timing and
      tracing (used by ``repair``, which predates the observability
      contract and must keep golden traces stable);
    * :meth:`span_attrs` — deterministic attributes stamped on the
      stage's trace span after a single-context run.
    """

    name: str = ""
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    observed: bool = True

    def run(self, ctxs: Sequence[StageContext]) -> None:
        raise NotImplementedError

    def span_attrs(self, ctx: StageContext) -> dict[str, Any]:
        return {}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# the graph
# ----------------------------------------------------------------------
class StageGraph:
    """An ordered, dataflow-validated composition of stages.

    Construction checks that stage names are unique and non-empty and
    that every stage's declared inputs are produced by an earlier
    stage's outputs (or seeded into the initial context), so a
    miswired graph fails at definition time, not per request.
    ``clock`` is the wall clock behind ``ctx.timings``.
    """

    def __init__(self, stages: Iterable[Stage],
                 seeds: tuple[str, ...] = ("prompt",),
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.stages = tuple(stages)
        self.seeds = tuple(seeds)
        self._clock = clock
        if not self.stages:
            raise ConfigError("a stage graph needs at least one stage")
        available = set(self.seeds)
        seen: set[str] = set()
        for stage in self.stages:
            if not stage.name:
                raise ConfigError(
                    f"stage {stage!r} has an empty name")
            if stage.name in seen:
                raise ConfigError(
                    f"duplicate stage name {stage.name!r}")
            seen.add(stage.name)
            missing = [key for key in stage.inputs if key not in available]
            if missing:
                raise ConfigError(
                    f"stage {stage.name!r} reads {missing} which no "
                    f"earlier stage produces (available: "
                    f"{sorted(available)})")
            available.update(stage.outputs)

    @property
    def stage_names(self) -> tuple[str, ...]:
        """Every stage name, in execution order."""
        return tuple(stage.name for stage in self.stages)

    @property
    def observed_stage_names(self) -> tuple[str, ...]:
        """Names of the stages timing and tracing report on."""
        return tuple(stage.name for stage in self.stages if stage.observed)

    def __iter__(self):
        return iter(self.stages)

    def __len__(self) -> int:
        return len(self.stages)

    # ------------------------------------------------------------------
    def run(self, ctxs: Sequence[StageContext],
            tracer: Any = None) -> Sequence[StageContext]:
        """Run every stage over ``ctxs``, observing each invocation.

        A single request is a sequence of one context.  ``tracer`` is
        an optional :class:`repro.obs.Tracer`; see :meth:`_invoke` for
        what an observed invocation records.

        Failure isolation: a stage exception must degrade only the
        context that caused it.  An invocation that raises is retried
        one context at a time through this same runner; a context that
        still raises gets the exception parked on ``ctx.failure`` and is
        filtered out of the remaining stages.  Stage bodies are pure
        functions of their declared inputs, so re-running the survivors
        alone is result-identical.
        """
        for stage in self.stages:
            live = [ctx for ctx in ctxs if ctx.failure is None]
            if not live:
                break
            self._isolate(stage, live, tracer)
        return ctxs

    def _isolate(self, stage: Stage, ctxs: Sequence[StageContext],
                 tracer: Any) -> None:
        try:
            self._invoke(stage, ctxs, tracer)
        except Exception as exc:  # noqa: BLE001 - isolate the poisoned ctx
            if len(ctxs) == 1:
                # nothing left to isolate it from: park at once, so a
                # lone failing request runs its stage exactly once
                ctxs[0].failure = exc
            else:
                for ctx in ctxs:
                    self._isolate(stage, [ctx], tracer)

    def _invoke(self, stage: Stage, ctxs: Sequence[StageContext],
                tracer: Any) -> None:
        """One stage invocation, timed and (with a tracer) traced.

        Each context records its share of the invocation's wall seconds
        (divided by the number of contexts, since the stage work is
        genuinely shared; alone, a context's share is the whole).  The
        ``stage`` span sits inside the timing bracket.  Over one context
        it carries the stage's deterministic :meth:`Stage.span_attrs`
        (``intent``, ``n_retrieved``, ...); over several, their count —
        a fork in the span's attributes only, kept because the
        checked-in golden traces pin the single-request shape byte for
        byte.  Unobserved stages record nothing.
        """
        if not stage.observed:
            stage.run(ctxs)
            return
        start = self._clock()
        if tracer is None:
            stage.run(ctxs)
        else:
            with tracer.span(f"stage:{stage.name}", kind="stage") as span:
                stage.run(ctxs)
                if len(ctxs) == 1:
                    span.set(**stage.span_attrs(ctxs[0]))
                else:
                    span.set(batch_size=len(ctxs))
        share = (self._clock() - start) / len(ctxs)
        for ctx in ctxs:
            ctx.timings[stage.name] = share


# ----------------------------------------------------------------------
# the ChatGraph pipeline's concrete stages (paper Fig. 1)
# ----------------------------------------------------------------------
def _group_contexts_by_graph(
        ctxs: Sequence[StageContext]
) -> tuple[list[StageContext], list[list[StageContext]]]:
    """Partition contexts into graph-less ones and shared-graph groups.

    Returns ``(no_graph, groups)`` where each group holds every context
    whose prompt carries the same graph *object* (the common served
    case: one uploaded graph fanned out across a batch), at zero
    hashing cost.  Equal-but-distinct graph objects stay apart here;
    content-level reuse is the sequence cache's job (keyed on the
    graph's topology view and label tokens), one layer down in
    :class:`~repro.sequencer.serializer.GraphSequentializer`.  Group
    order follows first appearance, keeping results deterministic.
    """
    no_graph: list[StageContext] = []
    by_object: dict[int, list[StageContext]] = {}
    for ctx in ctxs:
        graph = ctx.prompt.graph
        if graph is None:
            no_graph.append(ctx)
        else:
            by_object.setdefault(id(graph), []).append(ctx)
    return no_graph, list(by_object.values())


class IntentStage(Stage):
    """Classify the prompt text (understand/compare/clean/compute)."""

    name = "intent"
    inputs = ("prompt",)
    outputs = ("intent",)

    def __init__(self, classifier: IntentClassifier) -> None:
        self.classifier = classifier

    def run(self, ctxs: Sequence[StageContext]) -> None:
        # one shared scoring call: the classifier tokenizes and votes
        # once per *distinct* text, not once per context
        intents = self.classifier.predict_batch(
            [ctx.prompt.text for ctx in ctxs])
        for ctx, intent in zip(ctxs, intents):
            ctx["intent"] = intent

    def span_attrs(self, ctx: StageContext) -> dict[str, Any]:
        return {"intent": ctx.intent}


class GraphTypeStage(Stage):
    """Predict the uploaded graph's type and route the API categories.

    Scenario-1 routing: the predicted type selects which API categories
    retrieval (and the generate stage's allowed set) may draw from —
    social graphs get social APIs, molecules get chemistry.
    """

    name = "graph_type"
    inputs = ("prompt",)
    outputs = ("type_prediction", "graph_type", "categories")

    def __init__(self, predictor: GraphTypePredictor) -> None:
        self.predictor = predictor

    def run(self, ctxs: Sequence[StageContext]) -> None:
        # predict once per distinct graph object and share the frozen
        # TypePrediction across the group
        no_graph, groups = _group_contexts_by_graph(ctxs)
        for ctx in no_graph:
            ctx["type_prediction"] = None
            ctx["graph_type"] = None
            ctx["categories"] = CATEGORY_ROUTING.get("generic",
                                                     tuple(Category))
        for group in groups:
            prediction = self.predictor.predict(group[0].prompt.graph)
            categories = CATEGORY_ROUTING.get(prediction.graph_type,
                                              tuple(Category))
            for ctx in group:
                ctx["type_prediction"] = prediction
                ctx["graph_type"] = prediction.graph_type
                ctx["categories"] = categories

    def span_attrs(self, ctx: StageContext) -> dict[str, Any]:
        return {"graph_type": ctx.graph_type}


class RetrieveStage(Stage):
    """ANN search over API-description embeddings.

    Unembeddable text (e.g. punctuation only) degrades to an empty
    result instead of failing the request — the repair stage's fallback
    covers generation.  With :attr:`cache` attached (an LRU with the
    ``get``/``put`` of :class:`repro.serve.cache.LRUCache`) each
    context is looked up once and the retriever runs on the miss subset
    only; degraded results are never stored.
    """

    name = "retrieval"
    inputs = ("prompt", "categories")
    outputs = ("retrieved", "retrieval_ok")

    def __init__(self, retriever: APIRetriever,
                 config: ChatGraphConfig) -> None:
        self.retriever = retriever
        self.config = config
        #: (text, k, categories) -> retrieved names; set by
        #: :meth:`repro.core.pipeline.ChatPipeline.attach_caches`.
        self.cache: Any = None

    @property
    def top_k(self) -> int:
        return self.config.retrieval.top_k_apis

    def run(self, ctxs: Sequence[StageContext]) -> None:
        cache = self.cache
        if cache is None:
            self._retrieve(ctxs)
            return
        misses: list[StageContext] = []
        keys: list[tuple[Any, ...]] = []
        for ctx in ctxs:
            key = (ctx.prompt.text, self.top_k, ctx.categories)
            # a miss is None; an empty () is a stored result like any
            # other
            names = cache.get(key)
            if names is None:
                misses.append(ctx)
                keys.append(key)
            else:
                ctx["retrieved"] = names
                ctx["retrieval_ok"] = True
        if misses:
            self._retrieve(misses)
            for ctx, key in zip(misses, keys):
                if ctx.retrieval_ok:
                    cache.put(key, ctx.retrieved)

    def _retrieve(self, ctxs: Sequence[StageContext]) -> None:
        hit_lists = self.retriever.retrieve_batch(
            [ctx.prompt.text for ctx in ctxs], k=self.top_k,
            categories_per=[ctx.categories for ctx in ctxs])
        for ctx, hits in zip(ctxs, hit_lists):
            # None marks an unembeddable text (where the per-text
            # retriever calls raise EmbeddingError)
            ctx["retrieved"] = (() if hits is None
                                else tuple(hit.name for hit in hits))
            ctx["retrieval_ok"] = hits is not None

    def span_attrs(self, ctx: StageContext) -> dict[str, Any]:
        return {"n_retrieved": len(ctx.retrieved)}


class SequentializeStage(Stage):
    """Render the graph for the model (length-constrained path cover)."""

    name = "sequentialize"
    inputs = ("prompt",)
    outputs = ("sequences", "graph_tokens")

    def __init__(self, sequentializer: GraphSequentializer) -> None:
        self.sequentializer = sequentializer

    def run(self, ctxs: Sequence[StageContext]) -> None:
        # the supergraph path cover is a function of graph content
        # alone, so contexts sharing a graph object sequence once and
        # share the frozen GraphSequences (documented
        # immutable/shareable)
        no_graph, groups = _group_contexts_by_graph(ctxs)
        for ctx in no_graph:
            ctx["sequences"] = None
            ctx["graph_tokens"] = ()
        for group in groups:
            sequences = self.sequentializer.sequentialize(
                group[0].prompt.graph)
            graph_tokens = GenerationState.graph_tokens_from_counter(
                sequences.feature_counts)
            for ctx in group:
                ctx["sequences"] = sequences
                ctx["graph_tokens"] = graph_tokens

    def span_attrs(self, ctx: StageContext) -> dict[str, Any]:
        return {"n_sequences":
                ctx.sequences.n_sequences if ctx.sequences else 0}


class GenerateStage(Stage):
    """Decode an API chain (greedy or beam) from the assembled state.

    Every greedy context decodes through one lockstep
    :func:`~repro.llm.decoding.greedy_decode_batch` fleet; beam search
    carries per-candidate state and decodes per item.
    """

    name = "generate"
    inputs = ("prompt", "categories", "retrieved", "graph_tokens")
    outputs = ("names",)

    def __init__(self, model: ChainLanguageModel, registry: APIRegistry,
                 config: ChatGraphConfig) -> None:
        self.model = model
        self.registry = registry
        self.config = config

    def _state(self, ctx: StageContext) -> GenerationState:
        allowed = tuple(spec.name for spec in
                        self.registry.by_category(*ctx.categories))
        return GenerationState(prompt_text=ctx.prompt.text,
                               graph_tokens=ctx.graph_tokens,
                               retrieved=ctx.retrieved,
                               allowed=allowed)

    def run(self, ctxs: Sequence[StageContext]) -> None:
        llm = self.config.llm
        states = [self._state(ctx) for ctx in ctxs]
        if llm.beam_width > 1:
            names_per = [beam_decode(self.model, state,
                                     beam_width=llm.beam_width,
                                     max_length=llm.max_chain_length)
                         for state in states]
        else:
            names_per = greedy_decode_batch(
                self.model, states, max_length=llm.max_chain_length)
        for ctx, names in zip(ctxs, names_per):
            ctx["names"] = names

    def span_attrs(self, ctx: StageContext) -> dict[str, Any]:
        return {"n_generated": len(ctx.names)}


class RepairStage(Stage):
    """Validate the generated chain; fall back to a keyed default.

    Consults the one :class:`~repro.core.fallbacks.FallbackRegistry`,
    so every layer repairs identically.  ``observed=False``: repair is
    sub-microsecond bookkeeping and predates the observability
    contract, so it stays out of timings and spans (keeping golden
    traces and ``PipelineResult.timings`` byte-stable).
    """

    name = "repair"
    inputs = ("names", "graph_type", "intent")
    outputs = ("chain", "used_fallback")
    observed = False

    def __init__(self, registry: APIRegistry,
                 fallbacks: FallbackRegistry) -> None:
        self.registry = registry
        self.fallbacks = fallbacks

    def _resolve(self, ctx: StageContext) -> None:
        chain = APIChain.from_names(list(ctx.names))
        used_fallback = False
        try:
            chain.validate(self.registry)
        except ChainError:
            chain = APIChain.from_names(list(self.fallbacks.chain_for(
                ctx.graph_type, ctx.intent)))
            chain.validate(self.registry)
            used_fallback = True
        ctx["chain"] = chain
        ctx["used_fallback"] = used_fallback

    def run(self, ctxs: Sequence[StageContext]) -> None:
        # validation and fallback resolution are functions of the
        # routing key alone, so each distinct (names, graph_type,
        # intent) is validated against the registry once; every context
        # still receives its own APIChain instance because chains are
        # mutable (callers edit proposed chains in place)
        resolved: dict[tuple[Any, ...], tuple[tuple[str, ...], bool]] = {}
        for ctx in ctxs:
            key = (tuple(ctx.names), ctx.graph_type, ctx.intent)
            hit = resolved.get(key)
            if hit is None:
                self._resolve(ctx)
                resolved[key] = (tuple(node.api_name for node in
                                       ctx.chain.nodes),
                                 ctx.used_fallback)
            else:
                names, used_fallback = hit
                ctx["chain"] = APIChain.from_names(list(names))
                ctx["used_fallback"] = used_fallback


#: The concrete stage classes of the ChatGraph pipeline, in order.
CHAT_STAGE_CLASSES: tuple[type[Stage], ...] = (
    IntentStage, GraphTypeStage, RetrieveStage, SequentializeStage,
    GenerateStage, RepairStage)

#: Every canonical stage name, in execution order — the reference the
#: stage-literal lint checks other layers against.
CANONICAL_STAGE_NAMES: tuple[str, ...] = tuple(
    cls.name for cls in CHAT_STAGE_CLASSES)


def build_chat_graph(registry: APIRegistry, retriever: APIRetriever,
                     model: ChainLanguageModel, config: ChatGraphConfig,
                     sequentializer: GraphSequentializer,
                     type_predictor: GraphTypePredictor,
                     intent_classifier: IntentClassifier,
                     fallbacks: FallbackRegistry) -> StageGraph:
    """The one declarative definition of the paper's Fig. 1 pipeline."""
    return StageGraph([
        IntentStage(intent_classifier),
        GraphTypeStage(type_predictor),
        RetrieveStage(retriever, config),
        SequentializeStage(sequentializer),
        GenerateStage(model, registry, config),
        RepairStage(registry, fallbacks),
    ])
