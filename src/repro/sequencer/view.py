"""Interned, immutable view of a graph for the sequencer.

The sequencer walks every radius-``l`` ball of a graph and tests edges
for membership thousands of times per request; doing that over hashable
node objects and dict-of-dict adjacency dominated request time.  A
:class:`GraphView` numbers the nodes ``0..n-1`` in insertion order and
keeps adjacency as int tuples in neighbour order, so the path cover,
the motif search and the coarsening all run on list indexing.

A view is a *snapshot*: it holds no reference to the graph it was taken
from, so it can back a cached (shared) result while the graph is edited.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graphs.graph import DiGraph, Graph, Node


@dataclass(frozen=True)
class GraphView:
    """Nodes as ``0..n-1`` (insertion order) with int adjacency."""

    #: Original node of each id.
    nodes: tuple[Node, ...]
    #: Per id, neighbour ids in the graph's neighbour order
    #: (successors for a directed graph).
    adj: tuple[tuple[int, ...], ...]
    directed: bool
    #: Ids with ``degree == 0`` (for a directed graph: in + out).
    isolated: frozenset[int]
    n_edges: int

    @classmethod
    def of(cls, graph: Graph) -> "GraphView":
        nodes = tuple(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        directed = isinstance(graph, DiGraph)
        step = graph.successors if directed else graph.neighbors
        adj = tuple(tuple(map(index.__getitem__, step(node)))
                    for node in nodes)
        isolated = frozenset(
            i for i, row in enumerate(adj)
            if not row and graph.degree(nodes[i]) == 0)
        return cls(nodes=nodes, adj=adj, directed=directed,
                   isolated=isolated, n_edges=graph.number_of_edges())

    def repr_ranks(self) -> list[int]:
        """Per id, the position of the node's ``repr`` among all nodes'.

        Sorting ids by rank is sorting nodes by ``repr`` — the order the
        motif search breaks ties in — at one ``repr`` call per node.
        """
        reprs = [repr(node) for node in self.nodes]
        position = {text: i for i, text in enumerate(sorted(set(reprs)))}
        return [position[text] for text in reprs]

    def edges(self) -> list[tuple[int, int]]:
        """Edges in ``Graph.edges()`` order: arcs for a directed graph,
        else each edge once from its earlier endpoint."""
        if self.directed:
            return [(u, v) for u, row in enumerate(self.adj) for v in row]
        return [(u, v) for u, row in enumerate(self.adj) for v in row
                if v >= u]

    def skeleton(self) -> tuple[tuple[int, ...], ...]:
        """Undirected adjacency, in ``DiGraph.to_undirected()`` order."""
        if not self.directed:
            return self.adj
        rows: list[dict[int, None]] = [{} for _ in self.adj]
        for u, v in self.edges():
            rows[u][v] = None
            rows[v][u] = None
        return tuple(tuple(row) for row in rows)
