"""Rule mining over a triple table (AMIE-lite).

Two rule families feed the cleaning scenario:

* :class:`TypeSignature` — per-relation dominant (head type, tail type)
  pairs with confidence; facts violating a high-confidence signature are
  suspect.
* :class:`PathRule` — 2-hop implications ``r(x, y) <= r1(x, z), r2(z, y)``
  with support and standard confidence; firing rules whose head triple is
  absent predicts missing edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .triples import TripleStore, TripleTable, firsts, spans


@dataclass(frozen=True)
class TypeSignature:
    """Dominant type signature of one relation."""

    relation: str
    head_type: str
    tail_type: str
    #: Fraction of the relation's facts matching the signature.
    confidence: float
    #: Number of facts the signature was learned from.
    support: int


@dataclass(frozen=True)
class PathRule:
    """``head_relation(x, y) <= r1(x, z), r2(z, y)``."""

    head_relation: str
    body_first: str
    body_second: str
    #: Number of (x, y) pairs where body and head both hold.
    support: int
    #: support / number of pairs where the body holds.
    confidence: float

    def render(self) -> str:
        return (f"{self.head_relation}(x, y) <= "
                f"{self.body_first}(x, z), {self.body_second}(z, y) "
                f"[supp={self.support}, conf={self.confidence:.2f}]")


class RuleMiner:
    """Mine type signatures and path rules from a triple table."""

    def __init__(self, min_signature_confidence: float = 0.7,
                 min_rule_support: int = 2,
                 min_rule_confidence: float = 0.5) -> None:
        self.min_signature_confidence = min_signature_confidence
        self.min_rule_support = min_rule_support
        self.min_rule_confidence = min_rule_confidence

    # ------------------------------------------------------------------
    def mine_type_signatures(self, facts: TripleTable | TripleStore
                             ) -> dict[str, TypeSignature]:
        """Dominant (head type, tail type) per relation, when confident.

        Counts are one ``bincount`` over (relation, head type, tail
        type); of two tied pairs, the one met first in fact order wins.
        """
        table = _table(facts)
        head_type = table.entity_type[table.head]
        tail_type = table.entity_type[table.tail]
        typed = np.flatnonzero((head_type >= 0) & (tail_type >= 0))
        if not len(typed):
            return {}
        width = len(table.types) ** 2
        key = table.relation[typed] * width \
            + head_type[typed] * len(table.types) + tail_type[typed]
        counts = np.bincount(key, minlength=len(table.relations) * width)
        first = np.full(len(counts), len(key))
        np.minimum.at(first, key, np.arange(len(key)))
        counts, first = counts.reshape(-1, width), first.reshape(-1, width)
        # most facts first, then the pair met first (``most_common``'s rule)
        best = np.argmax(counts * (len(key) + 1) - first, axis=1)
        signatures: dict[str, TypeSignature] = {}
        for relation, pair, count, total in zip(
                table.relations, best.tolist(),
                counts[np.arange(len(best)), best].tolist(),
                counts.sum(axis=1).tolist()):
            if total and count / total >= self.min_signature_confidence:
                head, tail = divmod(pair, len(table.types))
                signatures[relation] = TypeSignature(
                    relation=relation, head_type=table.types[head],
                    tail_type=table.types[tail], confidence=count / total,
                    support=total)
        return signatures

    # ------------------------------------------------------------------
    def mine_path_rules(self, facts: TripleTable | TripleStore
                        ) -> list[PathRule]:
        """2-hop path rules with enough support and confidence.

        The distinct (x, y) pairs of each body ``(r1, r2)`` come from a
        sorted-key dedupe of the two-hop walks; the relations holding on
        each pair, from a ``searchsorted`` over the facts in (head, tail,
        relation) order.
        """
        table = _table(facts)
        n, m = len(table.entities), len(table.relations)
        x, r1, r2, y = table.two_hop()
        pairs = np.sort(((r1 * m + r2) * n + x) * n + y)
        pairs = pairs[firsts(pairs)]
        body, pair = pairs // (n * n), pairs % (n * n) * m
        by_pair = np.sort((table.head * n + table.tail) * m + table.relation)
        lo = np.searchsorted(by_pair, pair)
        which, at = spans(lo, np.searchsorted(by_pair, pair + m) - lo)
        hits = np.sort(body[which] * m + by_pair[at] % m)
        first = firsts(hits)
        hits, support = hits[first], np.diff(first, append=len(hits))
        # bodies: how many distinct (x, y) pairs each one holds on
        first = firsts(body)
        sizes = np.diff(first, append=len(body))
        confidence = support / sizes[np.searchsorted(body[first], hits // m)]
        keep = (support >= self.min_rule_support) \
            & (confidence >= self.min_rule_confidence)
        hits, support, confidence = hits[keep], support[keep], confidence[keep]
        head, first, second = hits % m, hits // m // m, hits // m % m
        order = np.lexsort((second, first, head, -support, -confidence))
        return [PathRule(head_relation=table.relations[h],
                         body_first=table.relations[b1],
                         body_second=table.relations[b2], support=s,
                         confidence=c)
                for h, b1, b2, s, c in zip(
                    *(column[order].tolist() for column in (
                        head, first, second, support, confidence)))]


def _table(facts: TripleTable | TripleStore) -> TripleTable:
    return facts if isinstance(facts, TripleTable) \
        else TripleTable.from_store(facts)
