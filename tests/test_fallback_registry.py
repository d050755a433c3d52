"""One fallback registry: serve layer and pipeline can never drift."""

from repro.config import ServeConfig
from repro.core.fallbacks import FALLBACKS, FallbackRegistry
from repro.core.stages import GenerateStage, RepairStage
from repro.llm.prompts import Prompt
from repro.serve import ChatGraphServer


class TestSingleSourceOfTruth:
    def test_repair_stage_consults_the_one_registry(self, chatgraph):
        repair = next(stage for stage in chatgraph.pipeline.graph
                      if isinstance(stage, RepairStage))
        assert repair.fallbacks is FALLBACKS
        assert chatgraph.pipeline.fallbacks is FALLBACKS

    def test_legacy_lookup_delegates(self):
        for (graph_type, intent), names in FALLBACKS.items():
            assert FALLBACKS.chain_for(graph_type, intent) == names
        assert FALLBACKS.chain_for("unknown-type", "unknown-intent") \
            == FALLBACKS.default

    def test_register_is_visible_through_every_view(self):
        registry = FallbackRegistry(chains={}, default=("generate_report",))
        registry.register("social", "compare", ("graph_summary",))
        assert registry.chain_for("social", "compare") == \
            ("graph_summary",)
        assert registry.chain_for("social", "other") == \
            ("generate_report",)
        assert registry.chain_for(None, "compare") == \
            ("generate_report",)

    def test_served_fallback_equals_pipeline_fallback(self, chatgraph,
                                                      social_graph,
                                                      monkeypatch):
        """A repaired prompt produces the exact chain the registry (and
        the direct pipeline) dictates, no matter which layer serves it.
        Generation is forced to emit an unknown API so the repair stage
        deterministically takes over on both paths."""
        generate = next(stage for stage in chatgraph.pipeline.graph
                        if isinstance(stage, GenerateStage))

        def bad_run(ctxs):
            for ctx in ctxs:
                ctx["names"] = ("definitely_not_an_api",)

        monkeypatch.setattr(generate, "run", bad_run)
        nonsense = "zzz qqq xxx yyy"
        direct = chatgraph.pipeline.process(Prompt(nonsense, social_graph))
        assert direct.used_fallback
        config = ServeConfig(workers=1, seed=0,
                             enable_tracing=False)
        with ChatGraphServer(chatgraph, config) as server:
            served = server.propose(nonsense, graph=social_graph)
        assert served.ok
        assert served.value.used_fallback
        expected = FALLBACKS.chain_for(direct.graph_type, direct.intent)
        assert tuple(direct.chain.api_names()) == expected
        assert tuple(served.value.chain.api_names()) == expected
