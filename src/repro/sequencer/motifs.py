"""Ring detection for the super-graph (molecule-style motifs).

Cliques cover social-style motifs but molecules are built from *rings*
(benzene, fused systems), which contain no triangles at all.  This
module finds small rings via the fundamental cycle basis of a BFS
spanning forest: each non-tree edge closes exactly one cycle with the
tree; cycles up to ``max_size`` become candidate motifs.
"""

from __future__ import annotations

from ..graphs.graph import Graph, Node
from ..graphs.topology import TopologyView


def find_rings(graph: Graph, max_size: int = 8) -> list[frozenset[Node]]:
    """Small rings from the fundamental cycle basis, deduplicated.

    Returns node sets of cycles with 3..``max_size`` nodes, largest
    first.  The basis has exactly ``m - n + c`` cycles, so this is
    linear-ish and safe on large graphs (unlike full cycle enumeration).
    Directed graphs are searched on their undirected skeleton.
    """
    view = TopologyView.of(graph)
    return [frozenset(view.nodes[i] for i in ring)
            for ring in ring_ids(view.skeleton(), view.repr_ranks(),
                                 max_size)]


def ring_ids(rows: tuple[tuple[int, ...], ...], rank: list[int],
             max_size: int = 8) -> list[frozenset[int]]:
    """:func:`find_rings` over undirected int adjacency ``rows``.

    ``rank`` orders node ids as their ``repr`` would
    (:meth:`TopologyView.repr_ranks`); equal-size rings come out in that
    order.
    """
    parent = [-1] * len(rows)
    depth = [-1] * len(rows)
    for root in range(len(rows)):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = [root]
        for node in queue:
            for neighbor in rows[node]:
                if depth[neighbor] < 0:
                    parent[neighbor] = node
                    depth[neighbor] = depth[node] + 1
                    queue.append(neighbor)

    rings: set[frozenset[int]] = set()
    for u, row in enumerate(rows):
        for v in row:
            if v <= u or parent[u] == v or parent[v] == u:
                continue  # seen from v's side, a self-loop, or a tree edge
            # the cycle this non-tree edge closes with the tree
            cycle = {u, v}
            a, b = u, v
            while depth[a] > depth[b]:
                a = parent[a]
                cycle.add(a)
            while depth[b] > depth[a]:
                b = parent[b]
                cycle.add(b)
            while a != b:
                a = parent[a]
                b = parent[b]
                cycle.add(a)
                cycle.add(b)
            if 3 <= len(cycle) <= max_size:
                rings.add(frozenset(cycle))
    return sorted(rings, key=lambda ring: (
        -len(ring), sorted(map(rank.__getitem__, ring))))
