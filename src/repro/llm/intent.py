"""Graph-type and intent classification.

Scenario 1 (Fig. 4) begins with "ChatGraph first predicts the type of
G": social networks route to community/connectivity APIs, molecule
graphs to chemistry APIs, knowledge graphs to inference APIs.  The
:class:`GraphTypePredictor` is a transparent structural classifier —
attribute signals when present, degree/clustering heuristics otherwise.

:class:`IntentClassifier` maps prompt *text* to a coarse task intent
(understand / compare / clean / compute) used for suggested questions
and chain post-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algorithms.clustering import average_clustering
from ..apis.registry import Category
from ..graphs.graph import DiGraph, Graph
from ..graphs.topology import TopologyView
from ..chem.elements import ELEMENTS
from ..embedding.tokenizer import tokenize

GRAPH_TYPES = ("social", "molecule", "knowledge", "generic")
INTENTS = ("understand", "compare", "clean", "compute")

#: graph type -> API categories retrieval may return (scenario-1 routing).
CATEGORY_ROUTING: dict[str, tuple[Category, ...]] = {
    "social": (Category.SOCIAL, Category.GENERIC, Category.REPORT,
               Category.EDIT),
    "molecule": (Category.MOLECULE, Category.GENERIC, Category.REPORT),
    "knowledge": (Category.KNOWLEDGE, Category.GENERIC, Category.REPORT,
                  Category.EDIT),
    "generic": tuple(Category),
}


@dataclass(frozen=True)
class TypePrediction:
    """Predicted graph type with score breakdown (for the report)."""

    graph_type: str
    scores: dict[str, float]
    evidence: tuple[str, ...]


class GraphTypePredictor:
    """Structural + attribute graph-type classifier.

    A prediction is memoised on the graph under its content stamp
    (:meth:`Graph.content_memo`): the type stage and the
    ``predict_graph_type`` step of a request, and every later turn on
    the unchanged graph, share one scan.  Each call gets its own
    ``scores`` dict.
    """

    def predict(self, graph: Graph) -> TypePrediction:
        memo = graph.content_memo("graph_type",
                                  lambda: self._predict(graph))
        return TypePrediction(memo.graph_type, dict(memo.scores),
                              memo.evidence)

    @staticmethod
    def _predict(graph: Graph) -> TypePrediction:
        scores = {t: 0.0 for t in GRAPH_TYPES}
        evidence: list[str] = []

        kinds: set = set()
        elements: set = set()
        for attrs in graph.node_attr_dicts():
            kinds.add(attrs.get("kind"))
            elements.add(attrs.get("element"))
        elements.discard(None)
        # attribute signals are near-decisive when present
        if "atom" in kinds:
            scores["molecule"] += 3.0
            evidence.append("nodes carry kind='atom'")
        if "person" in kinds:
            scores["social"] += 3.0
            evidence.append("nodes carry kind='person'")
        if "entity" in kinds:
            scores["knowledge"] += 3.0
            evidence.append("nodes carry kind='entity'")
        if elements and all(e in ELEMENTS for e in elements):
            scores["molecule"] += 2.0
            evidence.append(f"element labels {sorted(elements)[:4]}")
        if "relation" in graph.edge_attr_keys():
            scores["knowledge"] += 2.0
            evidence.append("edges carry relation labels")

        # structural signals
        if isinstance(graph, DiGraph):
            scores["knowledge"] += 1.0
            evidence.append("directed")
        else:
            view = TopologyView.of(graph)
            n = len(view.nodes)
            if n and view.n_edges > 0:
                max_degree = view.max_degree
                if 0 < max_degree <= 4:
                    scores["molecule"] += 1.0
                    evidence.append("max degree <= 4 (valence-like)")
                clustering = average_clustering(graph)
                if clustering > 0.1 and n >= 10:
                    scores["social"] += 1.0
                    evidence.append(f"clustered ({clustering:.2f})")
        best = max(scores.items(), key=lambda kv: kv[1])
        graph_type = best[0] if best[1] > 0 else "generic"
        return TypePrediction(graph_type=graph_type, scores=scores,
                              evidence=tuple(evidence))


def predict_graph_type(graph: Graph) -> str:
    """Convenience wrapper returning just the type string."""
    return GraphTypePredictor().predict(graph).graph_type


#: keyword -> intent vote tables for the text-intent classifier.
_INTENT_KEYWORDS: dict[str, tuple[str, ...]] = {
    "understand": ("report", "describe", "summarize", "summary", "overview",
                   "understand", "profile", "analyze", "tell", "about",
                   "brief"),
    "compare": ("similar", "similarity", "compare", "comparison", "closest",
                "alike", "resemble", "match", "nearest"),
    "clean": ("clean", "cleaning", "noise", "noisy", "fix", "repair",
              "incorrect", "wrong", "missing", "mislabel", "errors",
              "denoise", "correct"),
    "compute": ("count", "compute", "calculate", "find", "rank", "top",
                "shortest", "path", "diameter", "density", "degree",
                "communities", "influencers", "triangles", "toxicity",
                "solubility", "formula", "weight"),
}


#: Inverted vote table (keyword -> intents it votes for), shared by the
#: scalar and batched classifier paths: scoring walks the prompt's
#: distinct tokens once instead of probing every keyword list per call.
#: Counting is identical to the keyword-major loop because tokens are
#: deduplicated and no keyword repeats within one intent's tuple.
_KEYWORD_INTENTS: dict[str, tuple[str, ...]] = {}
for _intent, _keywords in _INTENT_KEYWORDS.items():
    for _kw in _keywords:
        _KEYWORD_INTENTS[_kw] = _KEYWORD_INTENTS.get(_kw, ()) + (_intent,)


class IntentClassifier:
    """Keyword-vote intent classifier over prompt text."""

    def predict(self, text: str) -> str:
        tokens = set(tokenize(text, drop_stop_words=False))
        votes = dict.fromkeys(_INTENT_KEYWORDS, 0)
        for token in tokens:
            for intent in _KEYWORD_INTENTS.get(token, ()):
                votes[intent] += 1
        # "clean"/"compare" keywords outrank the broad "compute" bucket
        for intent in ("clean", "compare", "understand"):
            if votes[intent] > 0 and votes[intent] >= max(
                    v for i, v in votes.items() if i != intent):
                return intent
        best = max(votes.items(), key=lambda kv: kv[1])
        return best[0] if best[1] > 0 else "understand"

    def predict_batch(self, texts: list[str]) -> list[str]:
        """Classify many prompts through one shared scoring pass.

        Result-identical to ``[self.predict(t) for t in texts]``; each
        *distinct* text is tokenized and scored once and the verdict is
        shared across its duplicates (served micro-batches routinely
        repeat prompt texts, and the scoring table above is shared
        across the whole call).
        """
        verdicts: dict[str, str] = {}
        out: list[str] = []
        for text in texts:
            verdict = verdicts.get(text)
            if verdict is None:
                verdict = verdicts[text] = self.predict(text)
            out.append(verdict)
        return out
