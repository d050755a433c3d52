"""Tests for category routing and fallback chains (pipeline policy)."""

import pytest

from repro.apis.registry import Category
from repro.core.fallbacks import FALLBACKS
from repro.llm.intent import CATEGORY_ROUTING, GRAPH_TYPES, INTENTS


class TestCategoryRouting:
    def test_every_graph_type_routed(self):
        for graph_type in GRAPH_TYPES:
            assert graph_type in CATEGORY_ROUTING

    def test_every_route_includes_generic_and_report(self):
        for categories in CATEGORY_ROUTING.values():
            assert Category.GENERIC in categories
            assert Category.REPORT in categories

    def test_molecule_route_excludes_social(self):
        assert Category.SOCIAL not in CATEGORY_ROUTING["molecule"]
        assert Category.KNOWLEDGE not in CATEGORY_ROUTING["molecule"]

    def test_generic_route_is_everything(self):
        assert set(CATEGORY_ROUTING["generic"]) == set(Category)


class TestFallbackChains:
    def test_all_fallbacks_validate(self, registry):
        from repro.apis import APIChain
        for chain_names in list(FALLBACKS.chains.values()) \
                + [FALLBACKS.default]:
            APIChain.from_names(list(chain_names)).validate(registry)

    def test_fallback_apis_within_routed_categories(self, registry):
        for (graph_type, __), chain_names in FALLBACKS.chains.items():
            allowed = set(CATEGORY_ROUTING[graph_type])
            for name in chain_names:
                assert registry.get(name).category in allowed, \
                    (graph_type, name)

    def test_fallback_keys_are_known(self):
        for graph_type, intent in FALLBACKS.chains:
            assert graph_type in GRAPH_TYPES
            assert intent in INTENTS

    def test_nonsense_prompt_falls_back_per_type(self, chatgraph,
                                                 social_graph, kg_graph):
        """Gibberish prompts still produce type-appropriate chains."""
        for graph, graph_type in ((social_graph, "social"),
                                  (kg_graph, "knowledge")):
            result = chatgraph.propose("qqq zzz xyzzy plugh", graph)
            allowed = set(CATEGORY_ROUTING[graph_type])
            for name in result.chain.api_names():
                assert chatgraph.registry.get(name).category in allowed

    def test_default_fallback_needs_only_a_graph(self, chatgraph,
                                                 random_graph):
        from repro.apis import APIChain, ChainContext
        chain = APIChain.from_names(list(FALLBACKS.default))
        record = chatgraph.executor.execute(
            chain, ChainContext(graph=random_graph))
        assert record.ok


class TestSuggestionsAnswerable:
    """Every suggested question for every graph type yields a valid,
    executable chain — panel 2 never suggests something that breaks."""

    @pytest.mark.parametrize("kind", ["social", "molecule", "knowledge"])
    def test_suggestions_execute(self, chatgraph, kind):
        from repro.core.suggestions import _SUGGESTIONS
        from repro.graphs import knowledge_graph, social_network
        from repro.chem import parse_smiles
        graphs = {
            "social": social_network(25, 2, seed=0),
            "molecule": parse_smiles("CC(=O)Oc1ccccc1C(=O)O").to_graph(),
            "knowledge": knowledge_graph(20, 60, seed=0),
        }
        for question in _SUGGESTIONS[kind]:
            response = chatgraph.ask(question, graph=graphs[kind])
            assert response.record is not None
            assert response.record.ok, (kind, question,
                                        [s.error for s in
                                         response.record.steps if not s.ok])
