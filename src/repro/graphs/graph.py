"""Core property-graph data structures.

:class:`Graph` is an undirected multigraph-free property graph: nodes are
hashable objects, and both nodes and edges carry attribute dictionaries.
:class:`DiGraph` is its directed counterpart with separate successor and
predecessor adjacency.  The representation is a dict-of-dicts adjacency,
so neighbor iteration and membership tests are O(1) amortized.

Every change of *topology* (a node or an edge appearing or going) bumps
:attr:`Graph.topology_stamp`.  The graph memoises its
:class:`~repro.graphs.topology.TopologyView` under the stamp, and the
view in turn memoises what the algorithms compute from the topology
alone (PageRank, label propagation, triangles, ...), so a graph asked
about turn after turn is analysed once per topology.

Every attribute write (``add_node`` / ``add_edge`` with attributes,
``set_node_attr``, ``set_edge_attr``) bumps an attribute stamp instead.
``node_attrs``, ``edge_attrs`` and ``node_attr_dicts`` hand out
read-only mappings, so no write can get past the stamps, and
:attr:`Graph.content_stamp` — the pair of both — names what the graph
holds.  :meth:`Graph.content_memo` files results that read attributes
(the type prediction, the triple table and its fits, the sequence-cache
key's content part) under it.
``node_attr_dicts`` and ``edge_attr_keys`` read every attribute dict in
one pass for the scans that need them all.

:meth:`Graph.freeze` turns a graph into a snapshot that many readers may
share: every later write raises :class:`~repro.errors.GraphError`, and
``copy()`` gives a private, editable graph.
"""

from __future__ import annotations

from itertools import chain
from types import MappingProxyType
from typing import (Any, Callable, Hashable, Iterable, Iterator, Mapping,
                    TypeVar)

from ..errors import EdgeNotFoundError, GraphError, NodeNotFoundError

Node = Hashable
T = TypeVar("T")

_FROZEN = "graph is a shared read-only snapshot; edit a copy()"


class Graph:
    """An undirected graph with node and edge attributes.

    Example::

        g = Graph(name="triangle")
        g.add_edge("a", "b", weight=2.0)
        g.add_edge("b", "c")
        g.add_edge("c", "a")
        assert g.degree("a") == 2
    """

    directed: bool = False

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._nodes: dict[Node, dict[str, Any]] = {}
        self._adj: dict[Node, dict[Node, dict[str, Any]]] = {}
        self._stamp = 0
        self._attr_stamp = 0
        self._read_only = False
        #: ``(stamp, view)`` of the last :class:`TopologyView` taken, or
        #: None.  One store of an immutable pair, so no lock: two
        #: threads racing on an unchanged graph build equal views.
        self._view_memo: tuple[int, Any] | None = None
        #: Slot name -> ``(content_stamp, value)`` (see content_memo).
        self._content_results: dict[str, tuple[tuple[int, int], Any]] = {}

    @property
    def topology_stamp(self) -> int:
        """Counts the topology changes of this object so far.

        Moves when a node or an edge is added or removed — never on an
        attribute write, nor when an existing node or edge is re-added.
        """
        return self._stamp

    @property
    def content_stamp(self) -> tuple[int, int]:
        """``(topology_stamp, attribute stamp)``: the attribute stamp
        counts the attribute writes so far (``add_node`` / ``add_edge``
        with attributes, ``set_node_attr``, ``set_edge_attr``), so no
        two states of this object's nodes, edges and attributes share
        the pair."""
        return (self._stamp, self._attr_stamp)

    def content_memo(self, name: str, compute: Callable[[], T]) -> T:
        """``compute()``, or what it returned under ``name`` while the
        graph held what it holds now (same :attr:`content_stamp`).

        One slot per name, filed on this object only: equal graphs never
        share a value, and ``copy()`` starts empty.  The value must not
        be handed out as is unless it is immutable: callers build fresh
        containers from it.  No lock: the slot is one store of an
        immutable pair.  Two threads that miss together both compute,
        and the slot may keep either value, so every value ``compute``
        can return under one stamp must be valid for that content (they
        need not be equal: a shard ref draws a new counter value).
        """
        # stamped before computing: a write racing the compute files
        # the value under a stamp that never comes back
        stamp = (self._stamp, self._attr_stamp)
        slot = self._content_results.get(name)
        if slot is not None and slot[0] == stamp:
            return slot[1]
        value = compute()
        self._content_results[name] = (stamp, value)
        return value

    def freeze(self) -> "Graph":
        """Refuse every later write with :class:`GraphError`; returns
        ``self``.  A frozen graph is a snapshot readers may share;
        ``copy()`` gives an editable one."""
        self._read_only = True
        return self

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node, /, **attrs: Any) -> None:
        """Add ``node``; if it exists, merge ``attrs`` into its attributes."""
        if self._read_only:
            raise GraphError(_FROZEN)
        if node is None:
            raise GraphError("None is not a valid node")
        if node not in self._nodes:
            self._nodes[node] = {}
            self._adj[node] = {}
            self._stamp += 1
        if attrs:
            self._nodes[node].update(attrs)
            self._attr_stamp += 1

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Add every node in ``nodes`` (without attributes)."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: Node, v: Node, /, **attrs: Any) -> None:
        """Add edge ``(u, v)``, creating endpoints as needed.

        Re-adding an existing edge merges ``attrs`` into its attributes.
        Self-loops are allowed.
        """
        self.add_node(u)
        self.add_node(v)
        data = self._adj[u].get(v)
        if data is None:
            data = {}
            self._adj[u][v] = data
            self._adj[v][u] = data
            self._stamp += 1
        if attrs:
            data.update(attrs)
            self._attr_stamp += 1

    def add_edges(self, edges: Iterable[tuple[Node, Node]]) -> None:
        """Add every ``(u, v)`` pair in ``edges``."""
        for u, v in edges:
            self.add_edge(u, v)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges."""
        if self._read_only:
            raise GraphError(_FROZEN)
        if node not in self._nodes:
            raise NodeNotFoundError(node)
        for neighbor in list(self._adj[node]):
            if neighbor != node:
                del self._adj[neighbor][node]
        del self._adj[node]
        del self._nodes[node]
        self._stamp += 1

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove edge ``(u, v)``; endpoints stay."""
        if self._read_only:
            raise GraphError(_FROZEN)
        if u not in self._nodes or v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        del self._adj[u][v]
        if u != v:
            del self._adj[v][u]
        self._stamp += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_node(self, node: Node) -> bool:
        return node in self._nodes

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._adj and v in self._adj[u]

    def nodes(self) -> Iterator[Node]:
        """Iterate over nodes in insertion order."""
        return iter(self._nodes)

    def edges(self) -> Iterator[tuple[Node, Node]]:
        """Iterate over edges, each reported once as ``(u, v)``.

        An edge is reported from whichever endpoint the walk over nodes
        (in insertion order) reaches first.
        """
        walked: set[Node] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in walked:
                    yield (u, v)
            walked.add(u)

    def neighbors(self, node: Node) -> Iterator[Node]:
        """Iterate over the neighbors of ``node``."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return iter(self._adj[node])

    def degree(self, node: Node) -> int:
        """Number of incident edges (self-loops count twice)."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        loops = 1 if node in self._adj[node] else 0
        return len(self._adj[node]) + loops

    def number_of_nodes(self) -> int:
        return len(self._nodes)

    def number_of_edges(self) -> int:
        total = sum(len(nbrs) for nbrs in self._adj.values())
        loops = sum(1 for u in self._adj if u in self._adj[u])
        return (total + loops) // 2

    # ------------------------------------------------------------------
    # attributes
    # ------------------------------------------------------------------
    def node_attrs(self, node: Node) -> Mapping[str, Any]:
        """A read-only mapping of the attributes of ``node`` (it shows
        later writes; write through :meth:`set_node_attr`)."""
        if node not in self._nodes:
            raise NodeNotFoundError(node)
        return MappingProxyType(self._nodes[node])

    def edge_attrs(self, u: Node, v: Node) -> Mapping[str, Any]:
        """A read-only mapping of the attributes of edge ``(u, v)``
        (write through :meth:`set_edge_attr`)."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        return MappingProxyType(self._adj[u][v])

    def node_attr_dicts(self) -> Iterator[Mapping[str, Any]]:
        """Every node's attributes, read-only, in node order."""
        return map(MappingProxyType, self._nodes.values())

    def edge_attr_keys(self) -> set[str]:
        """Every key that some edge's attribute dict holds."""
        # an undirected edge's dict is read from both its arcs; a set
        # does not mind
        return set().union(
            *chain.from_iterable(map(dict.values, self._adj.values())))

    def set_node_attr(self, node: Node, key: str, value: Any) -> None:
        if self._read_only:
            raise GraphError(_FROZEN)
        if node not in self._nodes:
            raise NodeNotFoundError(node)
        self._nodes[node][key] = value
        self._attr_stamp += 1

    def set_edge_attr(self, u: Node, v: Node, key: str, value: Any) -> None:
        if self._read_only:
            raise GraphError(_FROZEN)
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self._adj[u][v][key] = value
        self._attr_stamp += 1

    def get_node_attr(self, node: Node, key: str, default: Any = None) -> Any:
        if node not in self._nodes:
            raise NodeNotFoundError(node)
        return self._nodes[node].get(key, default)

    def get_edge_attr(self, u: Node, v: Node, key: str,
                      default: Any = None) -> Any:
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        return self._adj[u][v].get(key, default)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Return a deep structural copy (attribute dicts are copied);
        the copy is editable, with empty memos."""
        clone = type(self)(name=self.name)
        for node, attrs in self._nodes.items():
            clone.add_node(node, **attrs)
        for u, v in self.edges():
            clone.add_edge(u, v, **self._adj[u][v])
        return clone

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """Return the induced subgraph on ``nodes`` (a copy), its nodes
        in this graph's order."""
        keep = set(nodes)
        missing = keep - self._nodes.keys()
        if missing:
            raise NodeNotFoundError(next(iter(missing)))
        sub = type(self)(name=self.name)
        for node, attrs in self._nodes.items():
            if node in keep:
                sub.add_node(node, **attrs)
        for u, v in self.edges():
            if u in keep and v in keep:
                sub.add_edge(u, v, **self._adj[u][v])
        return sub

    def to_directed(self) -> "DiGraph":
        """Return a directed copy with both arc directions for each edge."""
        digraph = DiGraph(name=self.name)
        for node, attrs in self._nodes.items():
            digraph.add_node(node, **attrs)
        for u, v in self.edges():
            attrs = self._adj[u][v]
            digraph.add_edge(u, v, **attrs)
            digraph.add_edge(v, u, **attrs)
        return digraph

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: object) -> bool:
        return node in self._nodes

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (f"<{type(self).__name__}{label} with "
                f"{self.number_of_nodes()} nodes, "
                f"{self.number_of_edges()} edges>")

    def __eq__(self, other: object) -> bool:
        """Structural equality: same nodes, edges and attributes."""
        if not isinstance(other, Graph) or self.directed != other.directed:
            return NotImplemented
        if self._nodes != other._nodes:
            return False
        if set(self._frozen_edges()) != set(other._frozen_edges()):
            return False
        return all(self._adj[u][v] == other._adj[u][v]
                   for u, v in self.edges())

    def __hash__(self) -> int:  # pragma: no cover - mutable container
        raise TypeError("graphs are mutable and unhashable")

    def _frozen_edges(self) -> Iterator[tuple[Node, Node]]:
        for u, v in self.edges():
            yield (u, v) if repr(u) <= repr(v) else (v, u)


class DiGraph(Graph):
    """A directed graph with node and edge attributes.

    Edges are arcs ``u -> v``; :meth:`neighbors` iterates successors and
    :meth:`predecessors` iterates in-neighbors.
    """

    directed: bool = True

    def __init__(self, name: str = "") -> None:
        super().__init__(name=name)
        self._pred: dict[Node, dict[Node, dict[str, Any]]] = {}

    def add_node(self, node: Node, /, **attrs: Any) -> None:
        new = node not in self._nodes
        super().add_node(node, **attrs)
        if new:
            self._pred[node] = {}

    def add_edge(self, u: Node, v: Node, /, **attrs: Any) -> None:
        self.add_node(u)
        self.add_node(v)
        data = self._adj[u].get(v)
        if data is None:
            data = {}
            self._adj[u][v] = data
            self._pred[v][u] = data
            self._stamp += 1
        if attrs:
            data.update(attrs)
            self._attr_stamp += 1

    def remove_node(self, node: Node) -> None:
        if self._read_only:
            raise GraphError(_FROZEN)
        if node not in self._nodes:
            raise NodeNotFoundError(node)
        for successor in list(self._adj[node]):
            del self._pred[successor][node]
        for predecessor in list(self._pred[node]):
            del self._adj[predecessor][node]
        del self._adj[node]
        del self._pred[node]
        del self._nodes[node]
        self._stamp += 1

    def remove_edge(self, u: Node, v: Node) -> None:
        if self._read_only:
            raise GraphError(_FROZEN)
        if u not in self._nodes or v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        del self._adj[u][v]
        del self._pred[v][u]
        self._stamp += 1

    def edges(self) -> Iterator[tuple[Node, Node]]:
        """Iterate over arcs ``(u, v)``."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                yield (u, v)

    def successors(self, node: Node) -> Iterator[Node]:
        """Iterate over out-neighbors of ``node``."""
        return super().neighbors(node)

    def predecessors(self, node: Node) -> Iterator[Node]:
        """Iterate over in-neighbors of ``node``."""
        if node not in self._pred:
            raise NodeNotFoundError(node)
        return iter(self._pred[node])

    def out_degree(self, node: Node) -> int:
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return len(self._adj[node])

    def in_degree(self, node: Node) -> int:
        if node not in self._pred:
            raise NodeNotFoundError(node)
        return len(self._pred[node])

    def degree(self, node: Node) -> int:
        """Total degree (in + out)."""
        return self.in_degree(node) + self.out_degree(node)

    def number_of_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values())

    def to_undirected(self) -> Graph:
        """Collapse arc directions; attribute dicts of ``u->v`` win ties."""
        graph = Graph(name=self.name)
        for node, attrs in self._nodes.items():
            graph.add_node(node, **attrs)
        for u, v in self.edges():
            graph.add_edge(u, v, **self._adj[u][v])
        return graph

    def reverse(self) -> "DiGraph":
        """Return a copy with every arc reversed."""
        rev = DiGraph(name=self.name)
        for node, attrs in self._nodes.items():
            rev.add_node(node, **attrs)
        for u, v in self.edges():
            rev.add_edge(v, u, **self._adj[u][v])
        return rev

    def _frozen_edges(self) -> Iterator[tuple[Node, Node]]:
        return self.edges()
