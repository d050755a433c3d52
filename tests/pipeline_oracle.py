"""An independent scalar reference for ``ChatPipeline``.

``process`` and ``process_batch`` share one body, so comparing them at
size 1 compares a path with itself.  This oracle is composed from the
public per-item component calls, exactly as
``benchmarks/ledger/layers.py::Replay.run`` composes them, except that
greedy decoding is the scalar reference in ``tests/decode_oracle.py``.
It touches no stage graph, and the greedy decodes touch no batched
kernel — the parity suites require both pipeline entry points to agree
with it field by field.
Test code only: nothing under ``src/`` imports it.
"""

from repro.apis.chain import APIChain
from repro.apis.registry import Category
from repro.core.fallbacks import FALLBACKS
from repro.core.pipeline import PipelineResult
from repro.errors import ChainError, EmbeddingError
from repro.llm.chain_model import GenerationState
from repro.llm.intent import CATEGORY_ROUTING

from .decode_oracle import greedy_decode


def oracle_process(chatgraph, prompt):
    """What the pipeline must reply to ``prompt`` (no timings)."""
    pipeline, config = chatgraph.pipeline, chatgraph.config
    text, graph = prompt.text, prompt.graph
    intent = pipeline.intent_classifier.predict(text)
    prediction = sequences = graph_type = None
    graph_tokens = ()
    if graph is not None:
        prediction = pipeline.type_predictor.predict(graph)
        graph_type = prediction.graph_type
        sequences = pipeline.sequentializer.sequentialize(graph)
        graph_tokens = GenerationState.graph_tokens_from_counter(
            sequences.feature_counts)
    categories = CATEGORY_ROUTING.get(graph_type or "generic",
                                      tuple(Category))
    try:
        retrieved = chatgraph.retriever.retrieve_names(
            text, k=config.retrieval.top_k_apis, categories=categories)
    except EmbeddingError:
        retrieved = ()
    state = GenerationState(
        prompt_text=text, graph_tokens=graph_tokens, retrieved=retrieved,
        allowed=tuple(spec.name for spec in
                      chatgraph.registry.by_category(*categories)))
    names = greedy_decode(chatgraph.model, state,
                          max_length=config.llm.max_chain_length)
    chain = APIChain.from_names(list(names))
    used_fallback = False
    try:
        chain.validate(chatgraph.registry)
    except ChainError:
        chain = APIChain.from_names(list(FALLBACKS.chain_for(graph_type,
                                                             intent)))
        used_fallback = True
    return PipelineResult(
        prompt=prompt, intent=intent, graph_type=graph_type,
        type_prediction=prediction, retrieved=retrieved,
        sequences=sequences, chain=chain, used_fallback=used_fallback)


def assert_result_parity(chatgraph, prompts, scalar, batched):
    """``process(p)``, ``process_batch(ps)`` and the oracle agree."""
    assert len(prompts) == len(scalar) == len(batched)
    for prompt, alone, member in zip(prompts, scalar, batched):
        expected = oracle_process(chatgraph, prompt)
        for actual in (alone, member):
            assert actual.intent == expected.intent
            assert actual.graph_type == expected.graph_type
            assert actual.type_prediction == expected.type_prediction
            assert actual.retrieved == expected.retrieved
            assert actual.used_fallback == expected.used_fallback
            # byte-identical chains, not just equal name lists
            assert actual.chain.render() == expected.chain.render()
            if expected.sequences is None:
                assert actual.sequences is None
            else:
                assert actual.sequences.sequences == \
                    expected.sequences.sequences
                assert actual.sequences.feature_counts == \
                    expected.sequences.feature_counts
        # same observed stages, in the same order, alone or batched
        assert list(alone.timings) == list(member.timings)
        assert alone.timings
