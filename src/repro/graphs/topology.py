"""Interned, immutable view of a graph's topology.

The sequencer walks every radius-``l`` ball of a graph and tests edges
for membership thousands of times per request, and the algorithms
behind the chain steps iterate every arc tens of times; doing that over
hashable node objects and dict-of-dict adjacency dominated request
time.  A :class:`TopologyView` numbers the nodes ``0..n-1`` in
insertion order and keeps adjacency in neighbour order, with two faces
over the same numbering:

* ``adj`` — int tuples per node, for code that walks in Python (the
  path cover, the ring search, label propagation), and the bitmask
  rows :func:`neighbor_masks` makes of them (the clique search);
* ``indptr`` / ``indices`` — the same rows flattened into numpy arrays
  on first use, for code that runs whole-array (PageRank).

:meth:`TopologyView.of` is memoised on the graph under
:attr:`Graph.topology_stamp`: one view is built per topology and shared
by everything that asks — the sequencer while a chain is proposed, every
step while it is executed, every later turn on the same graph.  The view
holds *topology only*.  Attribute writes do not move the stamp, so
nothing read from ``node_attrs`` / ``edge_attrs`` belongs here.

A view is a *snapshot*: it holds no reference to the graph it was taken
from, so it can back a cached (shared) result while the graph is edited.

A view also memoises what is computed from the topology alone
(:meth:`TopologyView.memo`): label propagation and the modularity of its
partition, PageRank, triangles and loop-free degrees.  Each algorithm
has one slot holding its last parameters and value, so the memo cannot
grow with the parameters a caller tries, and the value is kept as int
or float arrays; callers build fresh containers from it on every call.
The slots live and die with the view: an edit of the topology takes a
new view with empty slots, and since views are memoised per graph
*object*, two graphs never share a result, however equal their
contents.  The largest degree is a cached property, like ``indptr``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from typing import Any, Callable, TypeVar

import numpy as np

from .graph import DiGraph, Graph, Node

T = TypeVar("T")


@dataclass(frozen=True)
class TopologyView:
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
    #: Algorithm name -> ``(params, value)`` of its last call (see
    #: :meth:`memo`); not part of the view's equality.
    _results: dict[str, tuple[Any, Any]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, graph: Graph) -> "TopologyView":
        """The view of ``graph`` as it is now, built once per topology."""
        stamp = graph.topology_stamp
        memo = graph._view_memo
        if memo is not None and memo[0] == stamp:
            return memo[1]
        nodes = tuple(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        directed = isinstance(graph, DiGraph)
        step = graph.successors if directed else graph.neighbors
        adj = tuple(tuple(map(index.__getitem__, step(node)))
                    for node in nodes)
        isolated = frozenset(
            i for i, row in enumerate(adj)
            if not row and graph.degree(nodes[i]) == 0)
        view = cls(nodes=nodes, adj=adj, directed=directed,
                   isolated=isolated, n_edges=graph.number_of_edges())
        graph._view_memo = (stamp, view)
        return view

    @cached_property
    def indptr(self) -> np.ndarray:
        """Row ``i`` of ``adj`` is ``indices[indptr[i]:indptr[i + 1]]``."""
        return np.fromiter(accumulate(map(len, self.adj), initial=0),
                           dtype=np.intp, count=len(self.adj) + 1)

    @cached_property
    def indices(self) -> np.ndarray:
        """``adj`` flattened row after row (arc targets in source order)."""
        return np.fromiter(chain.from_iterable(self.adj), dtype=np.intp,
                           count=int(self.indptr[-1]))

    def memo(self, name: str, params: tuple, compute: Callable[[], T]) -> T:
        """``compute()``, or what it returned when last called with
        ``params`` under ``name`` on this view.

        ``compute`` must read this view only, never the live graph
        (which may have been edited since the view was taken), and its
        value must not be handed out as is: callers build fresh
        containers from it.
        A parameter matches by value *and* type (``-1`` and ``-1.0``
        seed different random streams).  No lock: the slot is one store
        of an immutable pair, and two threads that miss together compute
        equal values.
        """
        key = tuple(zip(map(type, params), params))
        slot = self._results.get(name)
        if slot is not None and slot[0] == key:
            return slot[1]
        value = compute()
        self._results[name] = (key, value)
        return value

    @cached_property
    def max_degree(self) -> int:
        """Largest :meth:`Graph.degree` (a self-loop counts twice; in +
        out on a directed graph), 0 on an empty graph."""
        if not self.adj:
            return 0
        if self.directed:
            degrees = np.diff(self.indptr) + np.bincount(
                self.indices, minlength=len(self.adj))
            return int(degrees.max())
        return max(len(row) + (node in row)
                   for node, row in enumerate(self.adj))

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


def neighbor_sets(rows: tuple[tuple[int, ...], ...]) -> list[set[int]]:
    """Undirected int adjacency ``rows`` as fresh sets, self-loops dropped."""
    sets = [set(row) for row in rows]
    for node, nbrs in enumerate(sets):
        nbrs.discard(node)
    return sets


def neighbor_masks(rows: tuple[tuple[int, ...], ...]) -> list[int]:
    """Undirected int adjacency ``rows`` as bitmasks, self-loops dropped.

    Bit ``v`` of entry ``u`` is set iff ``v`` is a neighbour of ``u``.
    A row lists each neighbour once, so summing its powers of two is
    or-ing them.
    """
    bit = [1 << node for node in range(len(rows))]
    return [sum(map(bit.__getitem__, row)) & ~bit[node]
            for node, row in enumerate(rows)]


def mask_ids(mask: int) -> list[int]:
    """Ids of the set bits of ``mask``, ascending."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids
