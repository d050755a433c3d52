"""Knowledge-graph APIs: error detection and missing-link prediction."""

from __future__ import annotations

from typing import Any

from ...errors import APIError
from ...graphs.graph import DiGraph
from ...kb.inference import KnowledgeInferencer
from ...kb.triples import TripleStore
from ..executor import ChainContext
from ..registry import APIRegistry, APISpec, Category


def _store(context: ChainContext) -> TripleStore:
    """The caller's ``triple_store`` attachment, else one derived from
    ``context.graph`` and kept for as long as that graph object stays
    (an edit step that changes the graph replaces the object)."""
    attached = context.extras.get("triple_store")
    if isinstance(attached, TripleStore):
        return attached
    graph = context.graph
    if not isinstance(graph, DiGraph):
        raise APIError("knowledge APIs need a directed knowledge graph")
    derived = context.extras.get("derived_triple_store")
    if derived is None or derived[0] is not graph:
        derived = (graph, TripleStore.from_graph(graph))
        context.extras["derived_triple_store"] = derived
    return derived[1]


def _inferencer(context: ChainContext) -> KnowledgeInferencer:
    store = _store(context)
    cached = context.extras.get("knowledge_inferencer")
    if isinstance(cached, KnowledgeInferencer) and cached.store is store:
        return cached
    inferencer = KnowledgeInferencer.fit(store)
    context.extras["knowledge_inferencer"] = inferencer
    return inferencer


def mine_rules(context: ChainContext) -> dict[str, Any]:
    """Learned type signatures and path rules of the knowledge graph."""
    inferencer = _inferencer(context)
    return {
        "type_signatures": {
            relation: {"head_type": s.head_type, "tail_type": s.tail_type,
                       "confidence": round(s.confidence, 3)}
            for relation, s in sorted(inferencer.signatures.items())},
        "path_rules": [rule.render() for rule in inferencer.rules],
    }


def detect_incorrect_edges(context: ChainContext,
                           min_confidence: float = 0.5) -> list[dict[str,
                                                                     Any]]:
    """Facts suspected wrong (violate learned type signatures)."""
    findings = _inferencer(context).detect_incorrect_edges(
        min_confidence=min_confidence)
    return [{"head": f.triple.head, "relation": f.triple.relation,
             "tail": f.triple.tail, "confidence": round(f.confidence, 3),
             "reason": f.reason} for f in findings]


def predict_missing_edges(context: ChainContext,
                          min_confidence: float = 0.5,
                          limit: int = 20) -> list[dict[str, Any]]:
    """Facts suspected missing (implied by mined path rules)."""
    findings = _inferencer(context).predict_missing_edges(
        min_confidence=min_confidence, limit=limit)
    return [{"head": f.triple.head, "relation": f.triple.relation,
             "tail": f.triple.tail, "confidence": round(f.confidence, 3),
             "reason": f.reason} for f in findings]


def infer_entity_types(context: ChainContext) -> dict[str, Any]:
    """Type untyped entities from the signatures of their relations."""
    inferred = _inferencer(context).infer_entity_types()
    return {
        "n_inferred": len(inferred),
        "entities": {entity: {"type": etype,
                              "confidence": round(confidence, 3)}
                     for entity, (etype, confidence)
                     in sorted(inferred.items())},
    }


def knowledge_profile(context: ChainContext) -> dict[str, Any]:
    """Entity-type and relation inventory of the knowledge graph."""
    store = _store(context)
    type_counts: dict[str, int] = {}
    for entity in store.entities():
        etype = store.entity_type(entity) or "untyped"
        type_counts[etype] = type_counts.get(etype, 0) + 1
    relation_counts = {relation: len(store.by_relation(relation))
                       for relation in store.relations()}
    return {"n_facts": len(store), "n_entities": len(store.entities()),
            "entity_types": type_counts, "relations": relation_counts}


def register(registry: APIRegistry) -> None:
    """Register every knowledge API."""
    knowledge = Category.KNOWLEDGE
    for spec in (
        APISpec("knowledge_profile",
                "profile a knowledge graph entity types relations and fact "
                "counts",
                knowledge, knowledge_profile),
        APISpec("mine_rules",
                "mine logical rules and relation type signatures from the "
                "knowledge graph",
                knowledge, mine_rules),
        APISpec("detect_incorrect_edges",
                "detect incorrect wrong or noisy edges and facts in the "
                "knowledge graph",
                knowledge, detect_incorrect_edges,
                params={"min_confidence": 0.5}),
        APISpec("predict_missing_edges",
                "predict missing edges or absent facts of the knowledge "
                "graph by rule inference",
                knowledge, predict_missing_edges,
                params={"min_confidence": 0.5, "limit": 20}),
        APISpec("infer_entity_types",
                "infer the types of untyped entities from their relation "
                "signatures",
                knowledge, infer_entity_types),
    ):
        registry.register(spec)
