"""The object bodies the columnar triple table replaced, kept as oracles.

Verbatim from the commit before ``repro.kb`` moved rule mining,
detection, prediction, type inference and the knowledge profile onto
:class:`repro.kb.TripleTable`: ``TripleStore.from_graph`` hashing one
frozen :class:`~repro.kb.Triple` per fact, and ``RuleMiner`` /
``KnowledgeInferencer`` walking the store through dicts of tuples.
Two edits: ``TypeSignature.matches`` (gone from the class) is the
function :func:`signature_matches`, and the profile takes the store
instead of a chain context.
``tests/test_kb_oracle.py`` requires the table bodies to return *equal*
values — same floats, same order, same ``reason`` text — not close ones.

Only the output records (``Triple``, ``TripleStore``, ``TypeSignature``,
``PathRule``, ``EdgeFinding``) are shared with the production code.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any

from repro.errors import KnowledgeBaseError
from repro.graphs.graph import DiGraph
from repro.kb import EdgeFinding, PathRule, Triple, TripleStore, TypeSignature


def store_from_graph(graph: DiGraph) -> TripleStore:
    """``TripleStore.from_graph``: a store from relation-labelled arcs."""
    if not isinstance(graph, DiGraph):
        raise KnowledgeBaseError("knowledge graphs must be directed")
    store = TripleStore()
    for node in graph.nodes():
        etype = graph.get_node_attr(node, "entity_type")
        if etype is not None:
            store.set_entity_type(str(node), str(etype))
    for u, v in graph.edges():
        relation = graph.get_edge_attr(u, v, "relation", "related_to")
        store.add(Triple(str(u), str(relation), str(v)))
    return store


def signature_matches(signature: TypeSignature, store: TripleStore,
                      triple: Triple) -> bool:
    """``TypeSignature.matches``."""
    return (store.entity_type(triple.head) == signature.head_type
            and store.entity_type(triple.tail) == signature.tail_type)


class RuleMiner:
    """Mine type signatures and path rules from a triple store."""

    def __init__(self, min_signature_confidence: float = 0.7,
                 min_rule_support: int = 2,
                 min_rule_confidence: float = 0.5) -> None:
        self.min_signature_confidence = min_signature_confidence
        self.min_rule_support = min_rule_support
        self.min_rule_confidence = min_rule_confidence

    # ------------------------------------------------------------------
    def mine_type_signatures(self,
                             store: TripleStore) -> dict[str, TypeSignature]:
        """Dominant (head type, tail type) per relation, when confident."""
        signatures: dict[str, TypeSignature] = {}
        for relation in store.relations():
            facts = store.by_relation(relation)
            typed = [(store.entity_type(t.head), store.entity_type(t.tail))
                     for t in facts]
            typed = [(h, t) for h, t in typed if h is not None
                     and t is not None]
            if not typed:
                continue
            (head_type, tail_type), count = \
                Counter(typed).most_common(1)[0]
            confidence = count / len(typed)
            if confidence >= self.min_signature_confidence:
                signatures[relation] = TypeSignature(
                    relation=relation, head_type=head_type,
                    tail_type=tail_type, confidence=confidence,
                    support=len(typed))
        return signatures

    # ------------------------------------------------------------------
    def mine_path_rules(self, store: TripleStore) -> list[PathRule]:
        """2-hop path rules with enough support and confidence."""
        # index: head entity -> list of (relation, tail)
        out_edges: dict[str, list[tuple[str, str]]] = defaultdict(list)
        pair_relations: dict[tuple[str, str], set[str]] = defaultdict(set)
        for triple in store:
            out_edges[triple.head].append((triple.relation, triple.tail))
            pair_relations[(triple.head, triple.tail)].add(triple.relation)

        # body instantiation counts: (r1, r2) -> set of (x, y)
        body_pairs: dict[tuple[str, str], set[tuple[str, str]]] = \
            defaultdict(set)
        for x, firsts in out_edges.items():
            for r1, z in firsts:
                for r2, y in out_edges.get(z, ()):
                    if x != y:
                        body_pairs[(r1, r2)].add((x, y))

        rules: list[PathRule] = []
        for (r1, r2), pairs in body_pairs.items():
            head_hits: Counter = Counter()
            for x, y in pairs:
                for head_relation in pair_relations.get((x, y), ()):
                    head_hits[head_relation] += 1
            for head_relation, support in head_hits.items():
                confidence = support / len(pairs)
                if support >= self.min_rule_support \
                        and confidence >= self.min_rule_confidence:
                    rules.append(PathRule(
                        head_relation=head_relation, body_first=r1,
                        body_second=r2, support=support,
                        confidence=confidence))
        rules.sort(key=lambda r: (-r.confidence, -r.support,
                                  r.head_relation, r.body_first,
                                  r.body_second))
        return rules


class KnowledgeInferencer:
    """Mines rules once, then answers detection/prediction queries.

    Example::

        inferencer = KnowledgeInferencer.fit(store)
        wrong = inferencer.detect_incorrect_edges()
        absent = inferencer.predict_missing_edges()
    """

    def __init__(self, store: TripleStore,
                 signatures: dict[str, TypeSignature],
                 rules: list[PathRule]) -> None:
        self.store = store
        self.signatures = signatures
        self.rules = rules

    @classmethod
    def fit(cls, store: TripleStore,
            miner: RuleMiner | None = None) -> "KnowledgeInferencer":
        miner = miner or RuleMiner()
        return cls(store=store,
                   signatures=miner.mine_type_signatures(store),
                   rules=miner.mine_path_rules(store))

    # ------------------------------------------------------------------
    def detect_incorrect_edges(self,
                               min_confidence: float = 0.5
                               ) -> list[EdgeFinding]:
        """Facts violating a learned high-confidence type signature."""
        findings: list[EdgeFinding] = []
        for triple in self.store:
            signature = self.signatures.get(triple.relation)
            if signature is None:
                continue
            if signature_matches(signature, self.store, triple):
                continue
            head_type = self.store.entity_type(triple.head) or "?"
            tail_type = self.store.entity_type(triple.tail) or "?"
            confidence = signature.confidence
            if confidence < min_confidence:
                continue
            findings.append(EdgeFinding(
                triple=triple,
                kind="incorrect",
                confidence=confidence,
                reason=(f"{triple.relation} links {head_type}->{tail_type} "
                        f"but {signature.confidence:.0%} of facts link "
                        f"{signature.head_type}->{signature.tail_type}"),
            ))
        findings.sort(key=lambda f: (-f.confidence, f.triple))
        return findings

    # ------------------------------------------------------------------
    def infer_entity_types(self) -> dict[str, tuple[str, float]]:
        """Type untyped entities from the signatures of their relations.

        Each fact votes: if ``works_at`` has signature person ->
        organization (confidence c), its head votes "person" with weight
        c and its tail votes "organization".  Returns
        ``entity -> (type, normalized vote share)`` for entities without
        a declared type that received any votes.
        """
        votes: dict[str, dict[str, float]] = {}
        for triple in self.store:
            signature = self.signatures.get(triple.relation)
            if signature is None:
                continue
            for entity, etype in ((triple.head, signature.head_type),
                                  (triple.tail, signature.tail_type)):
                if self.store.entity_type(entity) is not None:
                    continue
                votes.setdefault(entity, {})
                votes[entity][etype] = votes[entity].get(etype, 0.0) \
                    + signature.confidence
        inferred: dict[str, tuple[str, float]] = {}
        for entity, ballot in votes.items():
            total = sum(ballot.values())
            best_type, weight = max(ballot.items(),
                                    key=lambda kv: (kv[1], kv[0]))
            inferred[entity] = (best_type, weight / total)
        return inferred

    # ------------------------------------------------------------------
    def predict_missing_edges(self, min_confidence: float = 0.5,
                              limit: int | None = None) -> list[EdgeFinding]:
        """Head triples of firing path rules that are absent from the store.

        A prediction must also satisfy the head relation's type signature
        (when one was mined), which suppresses rule-noise predictions.
        """
        out_edges: dict[str, list[tuple[str, str]]] = defaultdict(list)
        for triple in self.store:
            out_edges[triple.head].append((triple.relation, triple.tail))

        best: dict[Triple, tuple[float, PathRule]] = {}
        for rule in self.rules:
            if rule.confidence < min_confidence:
                continue
            for x, firsts in out_edges.items():
                for r1, z in firsts:
                    if r1 != rule.body_first:
                        continue
                    for r2, y in out_edges.get(z, ()):
                        if r2 != rule.body_second or x == y:
                            continue
                        candidate = Triple(x, rule.head_relation, y)
                        if candidate in self.store:
                            continue
                        signature = self.signatures.get(rule.head_relation)
                        if signature is not None and not signature_matches(
                                signature, self.store, candidate):
                            continue
                        current = best.get(candidate)
                        if current is None or rule.confidence > current[0]:
                            best[candidate] = (rule.confidence, rule)

        findings = [EdgeFinding(
            triple=triple, kind="missing", confidence=confidence,
            reason=f"implied by rule {rule.render()}")
            for triple, (confidence, rule) in best.items()]
        findings.sort(key=lambda f: (-f.confidence, f.triple))
        if limit is not None:
            findings = findings[:limit]
        return findings


def knowledge_profile(store: TripleStore) -> dict[str, Any]:
    """The ``knowledge_profile`` API's body over a store."""
    type_counts: dict[str, int] = {}
    for entity in store.entities():
        etype = store.entity_type(entity) or "untyped"
        type_counts[etype] = type_counts.get(etype, 0) + 1
    relation_counts = {relation: len(store.by_relation(relation))
                       for relation in store.relations()}
    return {"n_facts": len(store), "n_entities": len(store.entities()),
            "entity_types": type_counts, "relations": relation_counts}
