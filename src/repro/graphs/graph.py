"""Core property-graph data structures.

:class:`Graph` is an undirected multigraph-free property graph: nodes are
hashable objects, and both nodes and edges carry attribute dictionaries.
:class:`DiGraph` is its directed counterpart with separate successor and
predecessor adjacency.  The representation is a dict-of-dicts adjacency,
so neighbor iteration and membership tests are O(1) amortized.

Every change of *topology* (a node or an edge appearing or going) bumps
:attr:`Graph.topology_stamp`; forms derived from the topology alone are
memoised on the graph under it (see :mod:`repro.graphs.topology`).
Attribute writes do not bump it: ``node_attrs`` / ``edge_attrs`` hand
out the live dicts, so nothing that reads attributes may be memoised
under the stamp.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator

from ..errors import EdgeNotFoundError, GraphError, NodeNotFoundError

Node = Hashable


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
        #: ``(stamp, view)`` of the last :class:`TopologyView` taken, or
        #: None.  One store of an immutable pair, so no lock: two
        #: threads racing on an unchanged graph build equal views.
        self._view_memo: tuple[int, Any] | None = None

    @property
    def topology_stamp(self) -> int:
        """Counts the topology changes of this object so far.

        Moves when a node or an edge is added or removed — never on an
        attribute write, nor when an existing node or edge is re-added.
        """
        return self._stamp

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node, **attrs: Any) -> None:
        """Add ``node``; if it exists, merge ``attrs`` into its attributes."""
        if node is None:
            raise GraphError("None is not a valid node")
        if node not in self._nodes:
            self._nodes[node] = {}
            self._adj[node] = {}
            self._stamp += 1
        self._nodes[node].update(attrs)

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Add every node in ``nodes`` (without attributes)."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: Node, v: Node, **attrs: Any) -> None:
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
        data.update(attrs)

    def add_edges(self, edges: Iterable[tuple[Node, Node]]) -> None:
        """Add every ``(u, v)`` pair in ``edges``."""
        for u, v in edges:
            self.add_edge(u, v)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges."""
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
        """Iterate over edges, each reported once as ``(u, v)``."""
        seen: set[tuple[Node, Node]] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if (v, u) not in seen:
                    seen.add((u, v))
                    yield (u, v)

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
    def node_attrs(self, node: Node) -> dict[str, Any]:
        """Return the mutable attribute dict of ``node``."""
        if node not in self._nodes:
            raise NodeNotFoundError(node)
        return self._nodes[node]

    def edge_attrs(self, u: Node, v: Node) -> dict[str, Any]:
        """Return the mutable attribute dict of edge ``(u, v)``."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        return self._adj[u][v]

    def set_node_attr(self, node: Node, key: str, value: Any) -> None:
        self.node_attrs(node)[key] = value

    def set_edge_attr(self, u: Node, v: Node, key: str, value: Any) -> None:
        self.edge_attrs(u, v)[key] = value

    def get_node_attr(self, node: Node, key: str, default: Any = None) -> Any:
        return self.node_attrs(node).get(key, default)

    def get_edge_attr(self, u: Node, v: Node, key: str,
                      default: Any = None) -> Any:
        return self.edge_attrs(u, v).get(key, default)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Return a deep structural copy (attribute dicts are copied)."""
        clone = type(self)(name=self.name)
        for node, attrs in self._nodes.items():
            clone.add_node(node, **attrs)
        for u, v in self.edges():
            clone.add_edge(u, v, **self._adj[u][v])
        return clone

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """Return the induced subgraph on ``nodes`` (a copy)."""
        keep = set(nodes)
        missing = keep - set(self._nodes)
        if missing:
            raise NodeNotFoundError(next(iter(missing)))
        sub = type(self)(name=self.name)
        for node in keep:
            sub.add_node(node, **self._nodes[node])
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

    def add_node(self, node: Node, **attrs: Any) -> None:
        new = node not in self._nodes
        super().add_node(node, **attrs)
        if new:
            self._pred[node] = {}

    def add_edge(self, u: Node, v: Node, **attrs: Any) -> None:
        self.add_node(u)
        self.add_node(v)
        data = self._adj[u].get(v)
        if data is None:
            data = {}
            self._adj[u][v] = data
            self._pred[v][u] = data
            self._stamp += 1
        data.update(attrs)

    def remove_node(self, node: Node) -> None:
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
