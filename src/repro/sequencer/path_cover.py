"""Length-constrained path cover (paper Sec. II-B).

For each node ``u`` of ``G`` we emit paths starting at ``u`` of length at
most ``l`` that cover the subgraph of ``G`` within ``l`` hops of ``u``:

* *node coverage* comes from the truncated-BFS tree of ``u`` — every
  root-to-node tree path is emitted;
* *edge coverage* adds, for every non-tree edge ``(a, b)`` inside the
  ball, the tree path to ``a`` extended by ``(a, b)`` when that stays a
  simple path of length <= ``l``, else the bare edge path ``(a, b)``.

Each per-node ball of radius ``l`` holds at most O(2^l) paths for
bounded-degree graphs, matching the paper's O(|G| * 2^l) total bound.
The cover is deduplicated globally (a path kept once even if several
start nodes generate it).

There is one traversal, :func:`cover_view`, over an interned
:class:`~repro.graphs.TopologyView`.  It *counts*: how often each
node occurs in the cover (which is all the model's token bag needs) and
the :class:`CoverStats`.  The paths themselves are only built when the
caller hands it a list to fill — :func:`length_constrained_path_cover`
and the lazy explain view of :class:`~repro.sequencer.GraphSequences`
do; ``sequentialize`` does not.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SequencerError
from ..graphs.graph import Graph, Node
from ..graphs.topology import TopologyView


@dataclass(frozen=True)
class CoverStats:
    """Bookkeeping of one path-cover run (benchmarked in E7)."""

    n_paths: int
    max_path_length: int
    covered_nodes: int
    covered_edges: int
    total_nodes: int
    total_edges: int

    @property
    def node_coverage(self) -> float:
        if self.total_nodes == 0:
            return 1.0
        return self.covered_nodes / self.total_nodes

    @property
    def edge_coverage(self) -> float:
        if self.total_edges == 0:
            return 1.0
        return self.covered_edges / self.total_edges


class _Capped(Exception):
    """Raised inside :func:`cover_view` to leave the walk at the cap."""


def _tree_path(parent: list[int], node: int) -> list[int]:
    """Ids from the ball's source down to ``node``."""
    path = [node]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def cover_view(view: TopologyView, max_length: int,
               max_paths: int | None = None,
               paths: list[tuple[int, ...]] | None = None
               ) -> tuple[list[int], CoverStats]:
    """Walk the cover of ``view``; returns ``(hits, stats)``.

    ``hits[i]`` is the number of times node ``i`` occurs over all emitted
    paths (a path of ``k`` nodes also holds ``k - 1`` hops, so the cover
    has ``sum(hits) - stats.n_paths`` of them).  When ``paths`` is given
    every emitted path is appended to it as an id tuple, in emission
    order.  The walk stops once ``max_paths`` paths are out.
    """
    if max_length < 1:
        raise SequencerError("max_length must be >= 1")
    adj, directed, n = view.adj, view.directed, len(view.adj)
    hits = [0] * n
    n_paths = longest = 0
    # per-ball BFS state, valid for node v while in_ball[v] == source
    in_ball = [-1] * n
    parent = [-1] * n
    depth = [0] * n
    #: Edge keys ``a * n + b`` (endpoints ordered unless directed).
    covered: set[int] = set()
    #: ``a * n + b`` of every bare edge path out so far.  Those are the
    #: only paths that can come up twice: ``(a, b)`` again as the
    #: depth-1 tree path of ``a``'s own, later ball.  Every other path
    #: starts at its ball's source and is unique within the ball.
    bare: set[int] = set()
    #: Per node, the neighbours whose edge may still be uncovered; a
    #: covered edge never needs a path again, so rows only shrink.
    open_rows = [list(row) for row in adj]

    try:
        for source in range(n):
            in_ball[source] = source
            parent[source] = -1
            depth[source] = 0
            if source in view.isolated:
                hits[source] += 1
                n_paths += 1
                if paths is not None:
                    paths.append((source,))
                if n_paths == max_paths:
                    raise _Capped
                continue
            # node coverage: the tree path of every node, in BFS
            # discovery order (leaves suffice, but emitting all keeps
            # short contexts for interior nodes too)
            ball = [source]
            first = source * n
            for a in ball:
                hops = depth[a] + 1
                if hops > max_length:
                    break
                for b in adj[a]:
                    if in_ball[b] == source:
                        continue
                    in_ball[b] = source
                    parent[b] = a
                    depth[b] = hops
                    ball.append(b)
                    if hops == 1 and first + b in bare:
                        continue
                    covered.add(a * n + b if directed or a < b
                                else b * n + a)
                    node = b
                    while node >= 0:
                        hits[node] += 1
                        node = parent[node]
                    n_paths += 1
                    if hops > longest:
                        longest = hops
                    if paths is not None:
                        paths.append(tuple(_tree_path(parent, b)))
                    if n_paths == max_paths:
                        raise _Capped
            # edge coverage: non-tree edges inside the ball, in ball x
            # neighbour order
            for a in ball:
                row = open_rows[a]
                if not row:
                    continue
                still_open = []
                for b in row:
                    key = a * n + b if directed or a < b else b * n + a
                    if key in covered:
                        continue
                    if (in_ball[b] != source or parent[b] == a
                            or parent[a] == b):
                        still_open.append(b)
                        continue
                    tree = _tree_path(parent, a)
                    if b not in tree and len(tree) <= max_length:
                        path = tree + [b]
                    else:
                        path = [a, b]
                        bare.add(a * n + b)
                    covered.add(key)
                    for node in path:
                        hits[node] += 1
                    n_paths += 1
                    if len(path) - 1 > longest:
                        longest = len(path) - 1
                    if paths is not None:
                        paths.append(tuple(path))
                    if n_paths == max_paths:
                        raise _Capped
                open_rows[a] = still_open
    except _Capped:
        pass
    return hits, CoverStats(
        n_paths=n_paths, max_path_length=longest,
        covered_nodes=n - hits.count(0), covered_edges=len(covered),
        total_nodes=n, total_edges=view.n_edges)


def length_constrained_path_cover(
        graph: Graph, max_length: int,
        max_paths: int | None = None) -> tuple[list[tuple[Node, ...]],
                                               CoverStats]:
    """Compute the length-constrained path cover of ``graph``.

    Returns ``(paths, stats)``; each path is a node tuple with at most
    ``max_length`` edges.  ``max_paths`` truncates the output (stats then
    reflect the truncated cover).
    """
    view = TopologyView.of(graph)
    id_paths: list[tuple[int, ...]] = []
    __, stats = cover_view(view, max_length, max_paths, paths=id_paths)
    node_of = view.nodes.__getitem__
    return [tuple(map(node_of, path)) for path in id_paths], stats
