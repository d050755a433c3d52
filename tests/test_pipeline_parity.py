"""Batching never changes a reply.

``process_batch(prompts)``, ``[process(p) for p in prompts]`` and the
independent scalar reference in ``tests/pipeline_oracle.py`` must agree
field by field — chains, retrieved names, fallback flags, routing,
sequences — across mixed graph/no-graph prompts, unembeddable texts
and invalid-chain (nonsense) inputs, for all three model presets.
``process`` is a batch of one through the body ``process_batch`` runs,
so the oracle is what keeps size 1 from being compared with itself.
The hypothesis strategy draws arbitrary mixed batches from that input
space; a warmed-cache case mixes hits and misses in one batch and pins
the exact cache traffic.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ChatGraph
from repro.config import MODEL_PRESETS, ChatGraphConfig, LLMConfig
from repro.graphs import knowledge_graph, molecule_like_graph, social_network
from repro.llm.prompts import Prompt
from repro.serve.cache import PipelineCaches

from .pipeline_oracle import assert_result_parity

#: Mixed input space: routable prompts, compute questions, nonsense
#: that forces the repair fallback, and unembeddable punctuation-only
#: text that degrades retrieval.
TEXTS = (
    "write a brief report for G",
    "count the nodes",
    "find communities",
    "clean up the knowledge graph",
    "is this molecule toxic",
    "zzz qqq xxx yyy",          # invalid chain -> repair fallback
    "?!. ,,,",                  # unembeddable -> empty retrieval
)

GRAPHS = (
    None,                       # no-graph prompt
    social_network(25, 3, p_in=0.3, p_out=0.02, seed=1),
    knowledge_graph(n_entities=25, n_facts=80, seed=3),
    molecule_like_graph(n_rings=2, chain_length=3, seed=0),
)

prompt_indices = st.lists(
    st.tuples(st.integers(0, len(TEXTS) - 1),
              st.integers(0, len(GRAPHS) - 1)),
    min_size=1, max_size=6)


@pytest.fixture(scope="module", params=MODEL_PRESETS)
def preset_chatgraph(request):
    config = ChatGraphConfig(llm=LLMConfig(model=request.param))
    return ChatGraph.pretrained(config=config, corpus_size=300, seed=0)


def build_prompts(indices):
    return [Prompt(TEXTS[t], GRAPHS[g]) for t, g in indices]


class TestScalarBatchParity:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(indices=prompt_indices)
    def test_batch_equals_mapped_scalar(self, preset_chatgraph, indices):
        pipeline = preset_chatgraph.pipeline
        prompts = build_prompts(indices)
        scalar = [pipeline.process(p) for p in prompts]
        batched = pipeline.process_batch(build_prompts(indices))
        assert_result_parity(preset_chatgraph, prompts, scalar, batched)

    def test_empty_batch(self, preset_chatgraph):
        assert preset_chatgraph.pipeline.process_batch([]) == []

    def test_parity_with_warm_and_cold_caches(self, preset_chatgraph):
        """Cache hits and misses mixed in one batch change no reply."""
        pipeline = preset_chatgraph.pipeline
        prompts = build_prompts([(0, 1), (6, 1), (1, 0), (0, 1), (5, 2)])
        scalar = [pipeline.process(p) for p in prompts]
        caches = PipelineCaches.with_sizes()
        try:
            preset_chatgraph.enable_caches(caches)
            # warm a strict subset so the batch mixes hits and misses
            pipeline.process(prompts[0])
            batched = pipeline.process_batch(prompts)
        finally:
            preset_chatgraph.enable_caches(None)
        assert_result_parity(preset_chatgraph, prompts, scalar, batched)
        # one get per context, one put per cacheable miss:
        # (hits, misses, size)
        table = {name: (stats.hits, stats.misses, stats.size)
                 for name in ("retrieval", "sequences")
                 for stats in [getattr(caches, name).stats()]}
        assert table == {"retrieval": (2, 4, 3),
                         "sequences": (1, 2, 2)}
        # the unembeddable text's degraded () was never memoized
        assert all(key[0] != TEXTS[6]
                   for key in caches.retrieval._data)


