"""Tests for the inference pipeline (prompt -> chain)."""

import pytest

from repro.config import ChatGraphConfig, LLMConfig
from repro.llm.prompts import Prompt
from repro.apis.registry import Category
from repro.chem import parse_smiles


class TestPipelineStages:
    def test_social_understanding(self, chatgraph, social_graph):
        result = chatgraph.pipeline.process(
            Prompt("write a brief report for G", social_graph))
        assert result.intent == "understand"
        assert result.graph_type == "social"
        assert result.chain.api_names()[0] == "predict_graph_type"
        assert result.chain.api_names()[-1] == "generate_report"
        assert not result.used_fallback

    def test_timings_recorded(self, chatgraph, social_graph):
        result = chatgraph.pipeline.process(
            Prompt("count the nodes", social_graph))
        for stage in ("intent", "graph_type", "retrieval",
                      "sequentialize", "generate"):
            assert stage in result.timings
            assert result.timings[stage] >= 0.0

    def test_no_graph_prompt(self, chatgraph):
        result = chatgraph.pipeline.process(Prompt("count the nodes"))
        assert result.graph_type is None
        assert result.sequences is None
        assert len(result.chain) >= 1

    def test_sequences_produced_for_graph(self, chatgraph, social_graph):
        result = chatgraph.pipeline.process(
            Prompt("count the nodes", social_graph))
        assert result.sequences is not None
        assert result.sequences.n_sequences > 0

    def test_category_routing(self, chatgraph, social_graph):
        """Social prompts never propose molecule APIs."""
        result = chatgraph.pipeline.process(
            Prompt("write a brief report for G", social_graph))
        registry = chatgraph.registry
        for name in result.chain.api_names():
            assert registry.get(name).category != Category.MOLECULE

    def test_molecule_routing(self, chatgraph):
        graph = parse_smiles("CC(=O)Oc1ccccc1C(=O)O").to_graph()
        result = chatgraph.pipeline.process(
            Prompt("is this molecule toxic", graph))
        assert result.graph_type == "molecule"
        assert "predict_toxicity" in result.chain.api_names()

    def test_retrieved_nonempty(self, chatgraph, social_graph):
        result = chatgraph.pipeline.process(
            Prompt("find communities", social_graph))
        assert len(result.retrieved) >= 1

    def test_fallback_on_unhelpful_prompt(self, chatgraph, social_graph):
        """Nonsense prompts still yield a valid executable chain."""
        result = chatgraph.pipeline.process(
            Prompt("zzz qqq xxx yyy", social_graph))
        result.chain.validate(chatgraph.registry)

    def test_single_compute_questions(self, chatgraph, social_graph):
        result = chatgraph.pipeline.process(
            Prompt("how many nodes does the graph have", social_graph))
        assert result.chain.api_names() == ["count_nodes"]

    def test_cleaning_chain(self, chatgraph, kg_graph):
        result = chatgraph.pipeline.process(Prompt("clean G", kg_graph))
        assert result.intent == "clean"
        names = result.chain.api_names()
        assert "detect_incorrect_edges" in names
        assert "export_graph" in names


class TestBeamConfig:
    def test_beam_decoding_path(self, social_graph):
        from repro import ChatGraph
        config = ChatGraphConfig(llm=LLMConfig(beam_width=3))
        cg = ChatGraph.pretrained(config=config, corpus_size=400, seed=1)
        result = cg.pipeline.process(
            Prompt("detect the communities of this network", social_graph))
        assert "detect_communities" in result.chain.api_names()


class TestFallbackChainValidity:
    """Repairs must never propose unexecutable chains (ISSUE 1)."""

    def test_every_fallback_chain_resolves_and_validates(self, registry):
        from repro.apis.chain import APIChain
        from repro.core.fallbacks import FALLBACKS

        known = set(registry.names())
        chains = dict(FALLBACKS.chains)
        chains[("generic", "default")] = FALLBACKS.default
        for key, names in chains.items():
            missing = [name for name in names if name not in known]
            assert not missing, (f"fallback {key} references unknown "
                                 f"APIs: {missing}")
            # structural validation too: ordering/arity rules hold
            APIChain.from_names(list(names)).validate(registry)

    def test_pipeline_fallback_lookup_covers_every_key(self, registry):
        from repro.core.fallbacks import FALLBACKS

        for (graph_type, intent), names in FALLBACKS.chains.items():
            assert FALLBACKS.chain_for(graph_type, intent) == names
        assert FALLBACKS.chain_for(None, "understand") in (
            FALLBACKS.chains.get(("generic", "understand")),
            FALLBACKS.default)
