"""Knowledge-graph facts in two forms.

:class:`TripleStore` is the mutable set of :class:`Triple` records the
cleaning loop edits.  :class:`TripleTable` is the read-only columnar
snapshot that rule mining, inference and the knowledge profile read,
built once per knowledge graph.  Its names are interned by sorted string
rank, so id order is name order, and its fact rows are sorted by (head,
relation, tail), the order a store iterates.  A graph becomes facts in
one place, :meth:`TripleTable.from_graph`.

No ``np.unique`` here: it imports ``numpy.ma`` (~1 MB resident per
process); a sort plus :func:`firsts` does the same work.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator

import numpy as np

from ..errors import KnowledgeBaseError
from ..graphs.graph import DiGraph


@dataclass(frozen=True, order=True)
class Triple:
    """One fact: ``relation(head, tail)``."""

    head: str
    relation: str
    tail: str

    def render(self) -> str:
        return f"({self.head}) -[{self.relation}]-> ({self.tail})"


#: Sort key giving the dataclass order of :class:`Triple` by comparing
#: field tuples in C rather than through the generated ``__lt__``.
_ORDER = attrgetter("head", "relation", "tail")


class TripleStore:
    """A mutable set of triples with entity types.

    The cleaning loop edits one (:func:`~repro.kb.corrupt_store`,
    :func:`~repro.kb.apply_cleaning_plan`); mining and inference read a
    :class:`~repro.kb.TripleTable` of it.  Every listing is in
    :class:`Triple` order.

    Example::

        store = TripleStore()
        store.set_entity_type("alice", "person")
        store.add(Triple("alice", "works_at", "acme"))
    """

    def __init__(self) -> None:
        self._triples: set[Triple] = set()
        self._entity_types: dict[str, str] = {}

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, triple: Triple) -> None:
        self._triples.add(triple)

    def remove(self, triple: Triple) -> None:
        if triple not in self._triples:
            raise KnowledgeBaseError(f"triple not in store: {triple.render()}")
        self._triples.remove(triple)

    def set_entity_type(self, entity: str, entity_type: str) -> None:
        self._entity_types[entity] = entity_type

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, triple: object) -> bool:
        return triple in self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(sorted(self._triples, key=_ORDER))

    def relations(self) -> list[str]:
        return sorted({t.relation for t in self._triples})

    def entities(self) -> list[str]:
        return sorted({t.head for t in self._triples}.union(
            (t.tail for t in self._triples), self._entity_types))

    def entity_type(self, entity: str) -> str | None:
        return self._entity_types.get(entity)

    def by_relation(self, relation: str) -> list[Triple]:
        return [t for t in self if t.relation == relation]

    def outgoing(self, entity: str) -> list[Triple]:
        return [t for t in self if t.head == entity]

    def incoming(self, entity: str) -> list[Triple]:
        return [t for t in self if t.tail == entity]

    def copy(self) -> "TripleStore":
        clone = TripleStore()
        clone._triples.update(self._triples)
        clone._entity_types.update(self._entity_types)
        return clone

    # ------------------------------------------------------------------
    # graph conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: DiGraph) -> "TripleStore":
        """The facts of :meth:`TripleTable.from_graph`, as a store."""
        return TripleTable.from_graph(graph).to_store()

    def to_graph(self) -> DiGraph:
        """Digraph view: arcs labeled ``relation``, nodes ``entity_type``."""
        graph = DiGraph(name="knowledge_graph")
        for entity in self.entities():
            attrs = {"kind": "entity"}
            etype = self.entity_type(entity)
            if etype is not None:
                attrs["entity_type"] = etype
            graph.add_node(entity, **attrs)
        for triple in self:
            graph.add_edge(triple.head, triple.tail,
                           relation=triple.relation)
        return graph

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[str, str, str]],
                     entity_types: dict[str, str] | None = None
                     ) -> "TripleStore":
        store = cls()
        for head, relation, tail in triples:
            store.add(Triple(head, relation, tail))
        for entity, etype in (entity_types or {}).items():
            store.set_entity_type(entity, etype)
        return store


def firsts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in sorted ``keys`` starts."""
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(first)


def spans(lo: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For spans ``[lo[i], lo[i] + n[i])``: each member's span and index."""
    which = np.repeat(np.arange(len(n)), n)
    return which, np.arange(len(which)) + np.repeat(lo - np.cumsum(n) + n, n)


@dataclass(frozen=True, eq=False)
class TripleTable:
    """Facts as sorted int columns; an id indexes a sorted name tuple.

    Example: ``TripleTable.from_graph(knowledge_graph(40, 120))``.
    """

    entities: tuple[str, ...]
    relations: tuple[str, ...]
    types: tuple[str, ...]
    #: Type id of each entity, -1 when it has none.
    entity_type: np.ndarray
    head: np.ndarray
    relation: np.ndarray
    tail: np.ndarray

    def __post_init__(self) -> None:
        # a knowledge step's table is shared by every later read of the
        # same graph content (Graph.content_memo), so its columns are
        # read-only
        for column in (self.entity_type, self.head, self.relation,
                       self.tail):
            column.setflags(write=False)

    @classmethod
    def from_columns(cls, heads: list[str], relations: list[str],
                     tails: list[str], entity_types: dict[str, str]
                     ) -> "TripleTable":
        """Intern one name column per fact field; duplicates collapse."""
        names = (sorted(set(heads).union(tails, entity_types)),
                 sorted(set(relations)), sorted(set(entity_types.values())))
        entity, relation, etype = ({name: i for i, name in enumerate(kind)}
                                   for kind in names)

        def ids(index: dict[str, int], values: Iterable[str]) -> np.ndarray:
            return np.fromiter(map(index.__getitem__, values), np.int64)

        n, m = len(entity), max(len(relation), 1)
        if (n * m) ** 2 >= 1 << 63:  # the widest key, a 2-hop walk's
            raise KnowledgeBaseError("knowledge graph too large to index")
        key = np.sort((ids(entity, heads) * m + ids(relation, relations))
                      * n + ids(entity, tails))
        key = key[firsts(key)]
        entity_type = np.full(n, -1, dtype=np.int64)
        entity_type[ids(entity, entity_types)] = ids(
            etype, entity_types.values())
        return cls(*map(tuple, names), entity_type, key // (m * n),
                   key // n % m, key % n)

    @classmethod
    def from_graph(cls, graph: DiGraph) -> "TripleTable":
        """The facts of a digraph whose arcs carry ``relation``.

        Node ``entity_type`` attributes become entity types; an arc
        without a relation is ``related_to``.  Names are ``str(node)``,
        so ``1`` and ``"1"`` are one entity (its type the last one met).
        """
        if not isinstance(graph, DiGraph):
            raise KnowledgeBaseError("knowledge graphs must be directed")
        name = {node: str(node) for node in graph.nodes()}
        types = {name[node]: str(etype) for node in name
                 if (etype := graph.node_attrs(node).get("entity_type"))
                 is not None}
        arcs = list(graph.edges())
        return cls.from_columns(
            list(map(name.__getitem__, map(itemgetter(0), arcs))),
            [str(attrs.get("relation", "related_to"))
             for attrs in starmap(graph.edge_attrs, arcs)],
            list(map(name.__getitem__, map(itemgetter(1), arcs))), types)

    @classmethod
    def from_store(cls, store: TripleStore) -> "TripleTable":
        facts = list(store)
        return cls.from_columns(
            [t.head for t in facts], [t.relation for t in facts],
            [t.tail for t in facts],
            {e: store.entity_type(e) for e in store.entities()
             if store.entity_type(e) is not None})

    def to_store(self) -> TripleStore:
        names = self.entities
        return TripleStore.from_triples(
            zip(map(names.__getitem__, self.head.tolist()),
                map(self.relations.__getitem__, self.relation.tolist()),
                map(names.__getitem__, self.tail.tolist())),
            {name: self.types[t] for name, t
             in zip(names, self.entity_type.tolist()) if t >= 0})

    def two_hop(self) -> tuple[np.ndarray, ...]:
        """Every walk ``r1(x, z), r2(z, y)`` with ``x != y``, as columns
        ``(x, r1, r2, y)``: a CSR expansion over the head-sorted rows."""
        indptr = np.searchsorted(self.head, np.arange(len(self.entities) + 1))
        lo = indptr[self.tail]
        first, second = spans(lo, indptr[self.tail + 1] - lo)
        x, y = self.head[first], self.tail[second]
        keep = x != y
        return (x[keep], self.relation[first[keep]],
                self.relation[second[keep]], y[keep])
