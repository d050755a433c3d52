"""Knowledge-graph APIs: error detection and missing-link prediction."""

from __future__ import annotations

from collections import Counter
from typing import Any

import numpy as np

from ...errors import APIError
from ...graphs.graph import DiGraph
from ...kb.inference import KnowledgeInferencer
from ...kb.triples import TripleStore, TripleTable
from ..executor import ChainContext
from ..registry import APIRegistry, APISpec, Category


def _source(context: ChainContext) -> TripleStore | DiGraph:
    """The caller's ``triple_store`` attachment, else ``context.graph``."""
    store = context.extras.get("triple_store")
    if isinstance(store, TripleStore):
        return store
    if not isinstance(context.graph, DiGraph):
        raise APIError("knowledge APIs need a directed knowledge graph")
    return context.graph


def _table(context: ChainContext) -> TripleTable:
    """The facts the knowledge steps read: memoised on a graph under its
    content stamp (an edit step that changes the graph replaces the
    object; a later turn on the unchanged graph reads the same table)."""
    source = _source(context)
    if isinstance(source, TripleStore):
        return TripleTable.from_store(source)
    return source.content_memo("triple_table",
                               lambda: TripleTable.from_graph(source))


def _inferencer(context: ChainContext) -> KnowledgeInferencer:
    """The signature and rule fit of :func:`_table`, memoised alike.
    Steps read it and build fresh results; none hands it out."""
    source = _source(context)
    if isinstance(source, TripleStore):
        return KnowledgeInferencer.fit(source)
    return source.content_memo(
        "knowledge_inferencer",
        lambda: KnowledgeInferencer.fit(_table(context)))


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
    table = _table(context)
    type_name = (*table.types, "untyped")  # type id -1 reads "untyped"
    relation_counts = np.bincount(table.relation,
                                  minlength=len(table.relations))
    return {"n_facts": len(table.head), "n_entities": len(table.entities),
            "entity_types": dict(Counter(map(type_name.__getitem__,
                                             table.entity_type.tolist()))),
            "relations": dict(zip(table.relations,
                                  relation_counts.tolist()))}


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
