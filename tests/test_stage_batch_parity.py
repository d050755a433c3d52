"""Batching never changes a reply, and one failure stays one failure.

Every stage has one body over a sequence of contexts (shared scoring
pass, identity-keyed graph grouping, deduplicated repair resolution)
and ``process`` is a batch of one through it.  These tests pin the
contract that body must keep:

* ``process(p)``, ``process_batch(ps)`` and the independent scalar
  reference in ``tests/pipeline_oracle.py`` agree at sizes 1, 2, 16 and
  odd sizes, over mixed graph/no-graph prompts and unembeddable text —
  byte-identical rendered chains, identical stage outputs, and the
  same ANN distance-computation count alone as batched;
* grouping is by graph *object* and hashes nothing; content-equal but
  distinct graph objects still get equal sequences, through the
  sequence cache one layer down when it is attached, and no content
  digest is taken on the way;
* a single-prompt call has one trace shape whichever entry point made
  it, and a stage that fails it runs exactly once;
* failure isolation — one poisoned context degrades only itself, at
  every batch position, for a plain loop body, for a body that raises
  wholesale, and end to end through
  ``process_batch(return_exceptions=True)``.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ChatGraph
from repro.core.stages import (
    GenerateStage,
    Stage,
    StageContext,
    StageGraph,
    _group_contexts_by_graph,
)
from repro.graphs import io as graphs_io
from repro.graphs import knowledge_graph, molecule_like_graph, social_network
from repro.llm.prompts import Prompt
from repro.obs import Tracer
from repro.obs.export import spans_to_jsonl
from repro.serve.cache import PipelineCaches

from .pipeline_oracle import assert_result_parity

#: Mixed input space: routable prompts, compute questions, nonsense
#: that forces the repair fallback, and unembeddable punctuation-only
#: text that degrades retrieval (mirrors tests/test_pipeline_parity).
TEXTS = (
    "write a brief report for G",
    "count the nodes",
    "find communities",
    "clean up the knowledge graph",
    "is this molecule toxic",
    "zzz qqq xxx yyy",          # invalid chain -> repair fallback
    "?!. ,,,",                  # unembeddable -> empty retrieval
)

#: GRAPHS[2] and GRAPHS[4] are content-equal but *distinct* objects:
#: identity grouping keeps them apart, their replies must not differ.
GRAPHS = (
    None,                       # no-graph prompt
    social_network(25, 3, p_in=0.3, p_out=0.02, seed=1),
    knowledge_graph(n_entities=25, n_facts=80, seed=3),
    molecule_like_graph(n_rings=2, chain_length=3, seed=0),
    knowledge_graph(n_entities=25, n_facts=80, seed=3),
)

prompt_indices = st.lists(
    st.tuples(st.integers(0, len(TEXTS) - 1),
              st.integers(0, len(GRAPHS) - 1)),
    min_size=1, max_size=16)


@pytest.fixture(scope="module")
def parity_chatgraph():
    return ChatGraph.pretrained(corpus_size=300, seed=0)


def build_prompts(indices):
    return [Prompt(TEXTS[t], GRAPHS[g]) for t, g in indices]


@contextmanager
def attached(chatgraph, caches=None, tracer=None):
    """Attach a cache bundle and/or a tracer for the block only (the
    module fixture is shared, so nothing may stay attached)."""
    chatgraph.enable_caches(caches)
    chatgraph.set_tracer(tracer)
    try:
        yield
    finally:
        chatgraph.enable_caches(None)
        chatgraph.set_tracer(None)


# ----------------------------------------------------------------------
# process / process_batch / oracle parity
# ----------------------------------------------------------------------
class TestNewlyBatchedStageParity:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 16])
    def test_fixed_batch_sizes(self, parity_chatgraph, size):
        """Sizes 1, 2, 16 and odd sizes over the mixed input table."""
        combos = [(t % len(TEXTS), (t * 3 + 1) % len(GRAPHS))
                  for t in range(size)]
        pipeline = parity_chatgraph.pipeline
        prompts = build_prompts(combos)
        scalar = [pipeline.process(p) for p in prompts]
        batched = pipeline.process_batch(build_prompts(combos))
        assert_result_parity(parity_chatgraph, prompts, scalar, batched)

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(indices=prompt_indices)
    def test_arbitrary_mixed_batches(self, parity_chatgraph, indices):
        pipeline = parity_chatgraph.pipeline
        prompts = build_prompts(indices)
        scalar = [pipeline.process(p) for p in prompts]
        batched = pipeline.process_batch(build_prompts(indices))
        assert_result_parity(parity_chatgraph, prompts, scalar, batched)

    def test_distance_computation_parity(self, parity_chatgraph):
        """A batch spends exactly the ANN budget of its members alone."""
        pipeline = parity_chatgraph.pipeline
        index = pipeline.retriever.index
        combos = [(t, g) for t in range(len(TEXTS))
                  for g in range(len(GRAPHS))]
        prompts = build_prompts(combos)
        base = index.distance_computations
        scalar = [pipeline.process(p) for p in prompts]
        scalar_work = index.distance_computations - base
        base = index.distance_computations
        batched = pipeline.process_batch(build_prompts(combos))
        batched_work = index.distance_computations - base
        assert scalar_work > 0
        assert batched_work == scalar_work
        assert_result_parity(parity_chatgraph, prompts, scalar, batched)

    def test_duplicate_prompts_share_one_verdict(self, parity_chatgraph):
        """A batch of identical prompts returns identical results."""
        pipeline = parity_chatgraph.pipeline
        prompts = build_prompts([(1, 2)] * 5)
        expected = pipeline.process(prompts[0])
        for result in pipeline.process_batch(prompts):
            assert result.chain.render() == expected.chain.render()
            assert result.intent == expected.intent

    def test_grouping_is_by_graph_object(self):
        """Same object -> one group, graph-less contexts apart, groups
        in first-appearance order; equal content alone does not merge."""
        ctxs = [StageContext({"prompt": p}) for p in build_prompts(
            [(0, 2), (1, 4), (2, 0), (3, 2)])]
        no_graph, groups = _group_contexts_by_graph(ctxs)
        assert no_graph == [ctxs[2]]
        # GRAPHS[2] and GRAPHS[4] are distinct objects, same content
        assert groups == [[ctxs[0], ctxs[3]], [ctxs[1]]]

    def test_content_equal_graphs_get_equal_sequences(self,
                                                      parity_chatgraph):
        """Two equal-but-distinct graph objects in one batch reply
        alike; content-level reuse is the sequence cache's job."""
        pipeline = parity_chatgraph.pipeline
        prompts = build_prompts([(0, 2), (0, 4)])
        assert prompts[0].graph is not prompts[1].graph
        first, second = pipeline.process_batch(prompts)
        assert first.sequences.feature_counts == \
            second.sequences.feature_counts
        assert first.sequences.sequences == second.sequences.sequences
        caches = PipelineCaches.with_sizes()
        with attached(parity_chatgraph, caches=caches):
            first, second = pipeline.process_batch(prompts)
        stats = caches.sequences.stats()
        assert (stats.misses, stats.hits) == (1, 1)
        assert second.sequences is first.sequences


@pytest.fixture()
def fingerprint_calls(monkeypatch):
    """Every content digest taken while the test runs, whichever
    module imported the function."""
    calls = []
    real = graphs_io.fingerprint

    def counting(graph):
        calls.append(graph)
        return real(graph)

    for module in list(sys.modules.values()):
        if getattr(module, "fingerprint", None) is real:
            monkeypatch.setattr(module, "fingerprint", counting)
    return calls


class TestNoContentDigest:
    """The stage graph groups by identity and the sequence cache keys on
    the memoised topology view: nothing takes a content digest, with
    caches on or off, and the cache is asked once per graph object."""

    def test_distinct_graphs_take_no_digest_and_one_lookup_each(
            self, parity_chatgraph, fingerprint_calls):
        pipeline = parity_chatgraph.pipeline
        prompts = build_prompts([(0, 1), (1, 2), (2, 3), (3, 4)])
        pipeline.process_batch(prompts)
        caches = PipelineCaches.with_sizes()
        with attached(parity_chatgraph, caches=caches):
            pipeline.process_batch(prompts)
        assert fingerprint_calls == []
        # GRAPHS[2] and GRAPHS[4] are equal and built alike: one hit
        stats = caches.sequences.stats()
        assert (stats.misses, stats.hits) == (3, 1)

    def test_batch_of_one_looks_up_as_often_as_process(
            self, parity_chatgraph, fingerprint_calls):
        pipeline = parity_chatgraph.pipeline
        prompt = build_prompts([(0, 1)])[0]
        lookups = []
        for call in (pipeline.process,
                     lambda p: pipeline.process_batch([p])):
            for caches in (None, PipelineCaches.with_sizes()):
                with attached(parity_chatgraph, caches=caches):
                    call(prompt)
                    call(prompt)
                if caches is not None:
                    stats = caches.sequences.stats()
                    lookups.append((stats.misses, stats.hits))
        assert fingerprint_calls == []
        assert lookups == [(1, 1), (1, 1)]


class TestSingleRequestShape:
    """One prompt is one trace shape and one stage run, whichever
    entry point carried it."""

    @staticmethod
    def _canonical_trace(chatgraph, call):
        tracer = Tracer(seed=0)
        with attached(chatgraph, tracer=tracer):
            call()
        return spans_to_jsonl(tracer.finished_spans(), canonical=True)

    @pytest.mark.parametrize("combo", [(0, 1), (5, 0), (6, 3)])
    def test_process_and_batch_of_one_export_the_same_spans(
            self, parity_chatgraph, combo):
        pipeline = parity_chatgraph.pipeline
        prompt = build_prompts([combo])[0]
        alone = self._canonical_trace(
            parity_chatgraph, lambda: pipeline.process(prompt))
        batched = self._canonical_trace(
            parity_chatgraph, lambda: pipeline.process_batch([prompt]))
        assert alone == batched
        assert '"name": "pipeline"' in alone

    def test_failing_single_prompt_runs_once_and_raises_it(
            self, parity_chatgraph, monkeypatch):
        pipeline = parity_chatgraph.pipeline
        generate = next(stage for stage in pipeline.graph
                        if isinstance(stage, GenerateStage))
        boom = _Boom("generate")
        runs = []

        def failing_run(ctxs):
            runs.append(len(ctxs))
            raise boom

        monkeypatch.setattr(generate, "run", failing_run)
        tracer = Tracer(seed=0)
        with attached(parity_chatgraph, tracer=tracer), \
                pytest.raises(_Boom) as raised:
            pipeline.process(build_prompts([(0, 1)])[0])
        assert raised.value is boom
        assert runs == [1]
        status = {span.name: span.status
                  for span in tracer.finished_spans()}
        assert status["stage:generate"] == "error"
        assert status["pipeline"] == "error"
        assert status["stage:sequentialize"] == "ok"


# ----------------------------------------------------------------------
# failure isolation (satellite: one poisoned context degrades itself)
# ----------------------------------------------------------------------
class _Boom(RuntimeError):
    pass


class _UpperStage(Stage):
    name = "upper"
    inputs = ("text",)
    outputs = ("upper",)

    def run(self, ctxs) -> None:
        for ctx in ctxs:
            if ctx.text == "poison":
                raise _Boom(ctx.text)
            ctx["upper"] = ctx.text.upper()


class _ExclaimStage(Stage):
    name = "exclaim"
    inputs = ("upper",)
    outputs = ("final",)

    def run(self, ctxs) -> None:
        for ctx in ctxs:
            ctx["final"] = ctx.upper + "!"


class _WholesaleBoomStage(_UpperStage):
    """A body that fails the whole invocation before doing any work."""

    def run(self, ctxs) -> None:
        if any(ctx.text == "poison" for ctx in ctxs):
            raise _Boom("wholesale")
        super().run(ctxs)


TEXT_BATCH = ("alpha", "bravo", "charlie", "delta", "echo")


class TestBatchFailureIsolation:
    def _contexts(self, position: int) -> list[StageContext]:
        texts = list(TEXT_BATCH)
        texts[position] = "poison"
        return [StageContext({"text": text}) for text in texts]

    @staticmethod
    def _graph(first: Stage) -> StageGraph:
        return StageGraph([first, _ExclaimStage()], seeds=("text",))

    @pytest.mark.parametrize("position", range(len(TEXT_BATCH)))
    def test_mapped_scalar_isolates_each_position(self, position):
        """A plain loop body that raises midway degrades only the bad
        ctx: the graph retries the invocation one context at a time."""
        graph = self._graph(_UpperStage())
        ctxs = self._contexts(position)
        graph.run(ctxs)
        for index, ctx in enumerate(ctxs):
            if index == position:
                assert isinstance(ctx.failure, _Boom)
                assert "final" not in ctx
            else:
                assert ctx.failure is None
                assert ctx.final == TEXT_BATCH[index].upper() + "!"

    @pytest.mark.parametrize("position", range(len(TEXT_BATCH)))
    def test_vectorized_body_failure_retries_scalar(self, position):
        """A wholesale-raising body degrades only the bad ctx."""
        graph = self._graph(_WholesaleBoomStage())
        ctxs = self._contexts(position)
        graph.run(ctxs)
        for index, ctx in enumerate(ctxs):
            if index == position:
                assert isinstance(ctx.failure, _Boom)
                assert "final" not in ctx
            else:
                assert ctx.failure is None
                assert ctx.final == TEXT_BATCH[index].upper() + "!"

    def test_all_contexts_poisoned_short_circuits(self):
        graph = self._graph(_UpperStage())
        ctxs = [StageContext({"text": "poison"}) for _ in range(3)]
        graph.run(ctxs)
        assert all(isinstance(ctx.failure, _Boom) for ctx in ctxs)

    @pytest.mark.parametrize("position", range(4))
    def test_pipeline_poisoned_position(self, parity_chatgraph,
                                        monkeypatch, position):
        """End to end: the poisoned slot holds its exception, every
        other slot matches the result it would have produced alone."""
        pipeline = parity_chatgraph.pipeline
        marker = "##poisoned##"
        combos = [(0, 1), (1, 2), (5, 0), (6, 3)]
        prompts = build_prompts(combos)
        healthy = [pipeline.process(p) for p in prompts]
        prompts[position] = Prompt(marker, prompts[position].graph)

        classifier = pipeline.intent_classifier
        original = type(classifier).predict

        def poisoned_predict(text: str) -> str:
            if text == marker:
                raise _Boom(text)
            return original(classifier, text)

        monkeypatch.setattr(classifier, "predict", poisoned_predict)
        results = pipeline.process_batch(prompts,
                                         return_exceptions=True)
        assert len(results) == len(prompts)
        for index, result in enumerate(results):
            if index == position:
                assert isinstance(result, _Boom)
            else:
                assert result.chain.render() == \
                    healthy[index].chain.render()
                assert result.intent == healthy[index].intent
        # the default re-raises the first failure
        with pytest.raises(_Boom):
            pipeline.process_batch(prompts)
