"""Ring detection for the super-graph (molecule-style motifs).

Cliques cover social-style motifs but molecules are built from *rings*
(benzene, fused systems), which contain no triangles at all.  This
module finds small rings via the fundamental cycle basis of a BFS
spanning forest: each non-tree edge closes exactly one cycle with the
tree; cycles up to ``max_size`` become candidate motifs.
"""

from __future__ import annotations

from ..graphs.graph import Graph, Node
from ..graphs.topology import TopologyView, mask_ids


def find_rings(graph: Graph, max_size: int = 8) -> list[frozenset[Node]]:
    """Small rings from the fundamental cycle basis, deduplicated.

    Returns node sets of cycles with 3..``max_size`` nodes, largest
    first.  The basis has exactly ``m - n + c`` cycles, so this is
    linear-ish and safe on large graphs (unlike full cycle enumeration).
    Directed graphs are searched on their undirected skeleton.
    """
    view = TopologyView.of(graph)
    node_of = view.nodes.__getitem__
    return [frozenset(map(node_of, mask_ids(ring)))
            for ring in ring_ids(view.skeleton(), view.repr_ranks(),
                                 max_size)]


def ring_ids(rows: tuple[tuple[int, ...], ...], rank: list[int],
             max_size: int = 8, min_size: int = 3,
             avoid: int = 0) -> list[int]:
    """:func:`find_rings` over undirected int adjacency ``rows``, as
    bitmasks (bit ``i`` is id ``i``).

    ``rank`` orders node ids as their ``repr`` would
    (:meth:`TopologyView.repr_ranks`); equal-size rings come out in that
    order.  Only rings of at least ``min_size`` nodes that hold no id in
    the bitmask ``avoid`` are returned, and a cycle walk stops as soon
    as it meets such an id or outgrows ``max_size``; the spanning
    forest, and so every ring returned, is the unfiltered search's.
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

    rings: set[int] = set()
    for u, row in enumerate(rows):
        if avoid >> u & 1:
            continue
        for v in row:
            # skip an edge seen from v's side, a self-loop, a tree edge
            # and an edge with an avoided end
            if (v <= u or parent[u] == v or parent[v] == u
                    or avoid >> v & 1):
                continue
            # the cycle this non-tree edge closes with the tree: climb
            # the deeper end until the two ends meet at their ancestor
            cycle, size = 1 << u | 1 << v, 2
            a, b = u, v
            while True:
                if depth[a] < depth[b]:
                    a, b = b, a
                a = parent[a]
                if a == b:
                    break
                if size >= max_size or avoid >> a & 1:
                    cycle = 0
                    break
                cycle |= 1 << a
                size += 1
            if cycle and size >= min_size:
                rings.add(cycle)
    return sorted(rings, key=lambda ring: (
        -ring.bit_count(), sorted(map(rank.__getitem__, mask_ids(ring)))))
