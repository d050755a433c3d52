"""The single source of truth for repair-stage fallback chains.

When generation produces an invalid or empty chain, the pipeline's
``repair`` stage replaces it with a (graph type, intent) keyed default
so every prompt still yields something executable (paper Fig. 1's
"always propose" guarantee).  Exactly one :class:`FallbackRegistry`
instance — :data:`FALLBACKS` — backs every layer, so the serve layer
and the pipeline can never drift apart.
"""

from __future__ import annotations


class FallbackRegistry:
    """Maps ``(graph_type, intent)`` to a guaranteed-executable chain."""

    def __init__(self, chains: dict[tuple[str, str], tuple[str, ...]],
                 default: tuple[str, ...]) -> None:
        self.chains = dict(chains)
        self.default = tuple(default)

    def chain_for(self, graph_type: str | None,
                  intent: str) -> tuple[str, ...]:
        """The fallback chain for a prompt's routing key."""
        return self.chains.get((graph_type or "generic", intent),
                               self.default)

    def register(self, graph_type: str, intent: str,
                 chain: tuple[str, ...]) -> None:
        """Add (or replace) a keyed fallback chain."""
        self.chains[(graph_type, intent)] = tuple(chain)

    def items(self):
        return self.chains.items()


#: The one registry every layer consults (see module docstring).
FALLBACKS = FallbackRegistry(
    chains={
        ("social", "understand"): ("predict_graph_type", "graph_summary",
                                   "detect_communities", "find_influencers",
                                   "generate_report"),
        ("molecule", "understand"): ("predict_graph_type",
                                     "describe_molecule",
                                     "predict_toxicity",
                                     "predict_solubility",
                                     "generate_report"),
        ("knowledge", "understand"): ("predict_graph_type",
                                      "knowledge_profile",
                                      "mine_rules", "generate_report"),
        ("molecule", "compare"): ("similar_molecules",),
        ("knowledge", "clean"): ("detect_incorrect_edges",
                                 "remove_flagged_edges",
                                 "predict_missing_edges",
                                 "add_predicted_edges", "export_graph"),
    },
    default=("predict_graph_type", "graph_summary", "generate_report"),
)
