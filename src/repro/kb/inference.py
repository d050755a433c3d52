"""Knowledge inference: detect incorrect edges, predict missing edges.

The cleaning scenario (paper Fig. 6) first invokes knowledge inference
APIs to flag wrong facts and propose absent ones, then asks the user to
confirm before graph-edit APIs apply the changes.  Detection flags the
facts that violate their relation's high-confidence type signature;
prediction fires mined 2-hop path rules.  Both run on the columns of a
:class:`~repro.kb.TripleTable`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .rules import PathRule, RuleMiner, TypeSignature
from .triples import Triple, TripleStore, TripleTable, firsts, spans


@dataclass(frozen=True)
class EdgeFinding:
    """One suspected-incorrect or predicted-missing fact."""

    triple: Triple
    #: "incorrect" or "missing".
    kind: str
    #: In [0, 1]; how sure the inferencer is.
    confidence: float
    reason: str

    def render(self) -> str:
        return (f"[{self.kind} {self.confidence:.2f}] "
                f"{self.triple.render()} — {self.reason}")


class KnowledgeInferencer:
    """Mines rules once, then answers detection/prediction queries.

    Example::

        inferencer = KnowledgeInferencer.fit(store)
        wrong = inferencer.detect_incorrect_edges()
        absent = inferencer.predict_missing_edges()
    """

    def __init__(self, table: TripleTable,
                 signatures: dict[str, TypeSignature],
                 rules: list[PathRule]) -> None:
        self.table = table
        self.signatures = signatures
        self.rules = rules
        #: Per relation id: its signature's head and tail type ids (-2
        #: when it has none, so no entity type matches) and confidence.
        self._signature_head = np.full(len(table.relations), -2)
        self._signature_tail = self._signature_head.copy()
        self._signature_confidence = np.zeros(len(table.relations))
        for relation, s in signatures.items():
            r = bisect_left(table.relations, relation)
            self._signature_head[r] = bisect_left(table.types, s.head_type)
            self._signature_tail[r] = bisect_left(table.types, s.tail_type)
            self._signature_confidence[r] = s.confidence

    @classmethod
    def fit(cls, facts: TripleTable | TripleStore,
            miner: RuleMiner | None = None) -> "KnowledgeInferencer":
        """Mine ``facts`` (a store is read into a table first)."""
        table = facts if isinstance(facts, TripleTable) \
            else TripleTable.from_store(facts)
        miner = miner or RuleMiner()
        return cls(table=table,
                   signatures=miner.mine_type_signatures(table),
                   rules=miner.mine_path_rules(table))

    def _triple(self, head: int, relation: int, tail: int) -> Triple:
        names = self.table.entities
        return Triple(names[head], self.table.relations[relation],
                      names[tail])

    # ------------------------------------------------------------------
    def detect_incorrect_edges(self,
                               min_confidence: float = 0.5
                               ) -> list[EdgeFinding]:
        """Facts violating a learned high-confidence type signature:
        one mask over the fact columns."""
        table, relation = self.table, self.table.relation
        confidence = self._signature_confidence[relation]
        flagged = np.flatnonzero(
            (self._signature_head[relation] != -2)
            & (confidence >= min_confidence)
            & ((table.entity_type[table.head]
                != self._signature_head[relation])
               | (table.entity_type[table.tail]
                  != self._signature_tail[relation])))
        flagged = flagged[np.argsort(-confidence[flagged], kind="stable")]
        type_name = (*table.types, "?")  # type id -1 reads "?"
        entity_type = table.entity_type.tolist()
        findings: list[EdgeFinding] = []
        for h, r, t in zip(table.head[flagged].tolist(),
                           relation[flagged].tolist(),
                           table.tail[flagged].tolist()):
            s = self.signatures[table.relations[r]]
            findings.append(EdgeFinding(
                triple=self._triple(h, r, t), kind="incorrect",
                confidence=s.confidence,
                reason=(f"{s.relation} links {type_name[entity_type[h]]}->"
                        f"{type_name[entity_type[t]]} but "
                        f"{s.confidence:.0%} of facts link "
                        f"{s.head_type}->{s.tail_type}")))
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
        table = self.table
        typed = table.entity_type.tolist()
        head_type, tail_type, confidence = (
            column.tolist() for column in (self._signature_head,
                                           self._signature_tail,
                                           self._signature_confidence))
        votes: dict[int, dict[int, float]] = {}
        for h, r, t in zip(table.head.tolist(), table.relation.tolist(),
                           table.tail.tolist()):
            for entity, etype in ((h, head_type[r]), (t, tail_type[r])):
                if etype != -2 and typed[entity] < 0:
                    ballot = votes.setdefault(entity, {})
                    ballot[etype] = ballot.get(etype, 0.0) + confidence[r]
        inferred: dict[str, tuple[str, float]] = {}
        for entity, ballot in votes.items():
            best_type, weight = max(ballot.items(),
                                    key=lambda kv: (kv[1], kv[0]))
            inferred[table.entities[entity]] = (
                table.types[best_type], weight / sum(ballot.values()))
        return inferred

    # ------------------------------------------------------------------
    def predict_missing_edges(self, min_confidence: float = 0.5,
                              limit: int | None = None) -> list[EdgeFinding]:
        """Head triples of firing path rules that are absent from the store.

        A prediction must also satisfy the head relation's type signature
        (when one was mined), which suppresses rule-noise predictions.
        Of the rules implying one triple, the most confident (then the
        first listed) names it.
        """
        table = self.table
        n, m = len(table.entities), max(len(table.relations), 1)
        rules = [rule for rule in self.rules
                 if rule.confidence >= min_confidence]
        index = {name: i for i, name in enumerate(table.relations)}
        body = np.array([index[r.body_first] * m + index[r.body_second]
                         for r in rules], dtype=np.int64)
        by_body = np.argsort(body, kind="stable")
        # each walk joined to every rule whose body it instantiates
        x, r1, r2, y = table.two_hop()
        lo, hi = (np.searchsorted(body[by_body], r1 * m + r2, side)
                  for side in ("left", "right"))
        walk, at = spans(lo, hi - lo)
        rule, x, y = by_body[at], x[walk], y[walk]
        head = np.array([index[r.head_relation] for r in rules],
                        dtype=np.int64)[rule]
        key = (x * m + head) * n + y
        signature = self._signature_head[head]
        # absent from the facts, and typed as the head's signature wants
        facts = (table.head * m + table.relation) * n + table.tail
        keep = (np.searchsorted(facts, key, "right")
                == np.searchsorted(facts, key)) & (
            (signature == -2) | ((table.entity_type[x] == signature) & (
                table.entity_type[y] == self._signature_tail[head])))
        confidence = np.array([r.confidence for r in rules])
        key, rule = key[keep], rule[keep]
        # per triple: the most confident rule, then the first listed
        order = np.lexsort((rule, -confidence[rule], key))
        first = firsts(key[order])
        key, rule = key[order][first], rule[order][first]
        order = np.argsort(-confidence[rule], kind="stable")[:limit]
        return [EdgeFinding(
            triple=self._triple(k // n // m, k // n % m, k % n),
            kind="missing", confidence=rules[r].confidence,
            reason=f"implied by rule {rules[r].render()}")
            for k, r in zip(key[order].tolist(), rule[order].tolist())]
