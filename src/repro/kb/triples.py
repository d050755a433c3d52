"""Triple store: the knowledge-graph representation used for cleaning."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator

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
#: field tuples in C; the generated ``__lt__`` is a Python call per
#: comparison, which dominated every pass over a store.
_ORDER = attrgetter("head", "relation", "tail")


class TripleStore:
    """A set of triples with entity types and relation indexes.

    Example::

        store = TripleStore()
        store.set_entity_type("alice", "person")
        store.add(Triple("alice", "works_at", "acme"))
    """

    def __init__(self) -> None:
        self._triples: set[Triple] = set()
        self._by_relation: dict[str, set[Triple]] = {}
        self._by_head: dict[str, set[Triple]] = {}
        self._by_tail: dict[str, set[Triple]] = {}
        self._entity_types: dict[str, str] = {}
        #: Every triple in order, kept until the next ``add``/``remove``.
        self._ordered: tuple[Triple, ...] | None = None

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, triple: Triple) -> None:
        if triple in self._triples:
            return
        self._ordered = None
        self._triples.add(triple)
        self._by_relation.setdefault(triple.relation, set()).add(triple)
        self._by_head.setdefault(triple.head, set()).add(triple)
        self._by_tail.setdefault(triple.tail, set()).add(triple)

    def remove(self, triple: Triple) -> None:
        if triple not in self._triples:
            raise KnowledgeBaseError(f"triple not in store: {triple.render()}")
        self._ordered = None
        self._triples.discard(triple)
        self._by_relation[triple.relation].discard(triple)
        self._by_head[triple.head].discard(triple)
        self._by_tail[triple.tail].discard(triple)

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
        ordered = self._ordered
        if ordered is None:
            ordered = self._ordered = tuple(sorted(self._triples,
                                                   key=_ORDER))
        return iter(ordered)

    def relations(self) -> list[str]:
        return sorted(r for r, ts in self._by_relation.items() if ts)

    def entities(self) -> list[str]:
        seen = set(self._by_head) | set(self._by_tail) \
            | set(self._entity_types)
        return sorted(e for e in seen
                      if self._by_head.get(e) or self._by_tail.get(e)
                      or e in self._entity_types)

    def entity_type(self, entity: str) -> str | None:
        return self._entity_types.get(entity)

    def by_relation(self, relation: str) -> list[Triple]:
        return sorted(self._by_relation.get(relation, ()), key=_ORDER)

    def outgoing(self, entity: str) -> list[Triple]:
        return sorted(self._by_head.get(entity, ()), key=_ORDER)

    def incoming(self, entity: str) -> list[Triple]:
        return sorted(self._by_tail.get(entity, ()), key=_ORDER)

    def copy(self) -> "TripleStore":
        clone = TripleStore()
        for triple in self._triples:
            clone.add(triple)
        clone._entity_types.update(self._entity_types)
        return clone

    # ------------------------------------------------------------------
    # graph conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: DiGraph) -> "TripleStore":
        """Build a store from a digraph whose arcs carry ``relation``.

        Node ``entity_type`` attributes become entity types.
        """
        if not isinstance(graph, DiGraph):
            raise KnowledgeBaseError("knowledge graphs must be directed")
        store = cls()
        for node in graph.nodes():
            etype = graph.get_node_attr(node, "entity_type")
            if etype is not None:
                store.set_entity_type(str(node), str(etype))
        for u, v in graph.edges():
            relation = graph.get_edge_attr(u, v, "relation", "related_to")
            store.add(Triple(str(u), str(relation), str(v)))
        return store

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
