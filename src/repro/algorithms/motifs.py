"""Motif counting: triangles, cliques, stars, and a small motif census.

The motif census feeds the sequentializer's super-graph construction
(RUM-style coarsening, paper Sec. II-B) and the report APIs.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping

from ..errors import GraphError
from ..graphs.graph import DiGraph, Graph, Node
from ..graphs.topology import TopologyView, mask_ids, neighbor_masks
from .clustering import triangles


def triangle_count(graph: Graph) -> int:
    """Total number of triangles in the graph."""
    return sum(triangles(graph).values()) // 3


def find_cliques(graph: Graph, max_cliques: int = 100000) -> Iterator[
        frozenset[Node]]:
    """Maximal cliques via Bron-Kerbosch with pivoting.

    Yields each maximal clique as a frozenset.  Stops after
    ``max_cliques`` cliques to bound worst-case blowup.
    """
    if isinstance(graph, DiGraph):
        raise GraphError("clique enumeration requires an undirected graph")
    view = TopologyView.of(graph)
    node_of = view.nodes.__getitem__
    return (frozenset(map(node_of, mask_ids(clique)))
            for clique in maximal_cliques(
                dict(enumerate(neighbor_masks(view.adj))), max_cliques))


def maximal_cliques(adjacency: Mapping[int, int],
                    max_cliques: int = 100000) -> list[int]:
    """:func:`find_cliques` over a loop-free ``id -> neighbour bitmask``
    map (:func:`~repro.graphs.topology.neighbor_masks`), as bitmasks.

    Sets are ints (bit ``i`` is id ``i``), so intersecting two is one
    ``&`` and sizing one is ``int.bit_count``.  Which maximal cliques
    there are does not depend on the order the search meets them in;
    past the cap, which ones were kept does.
    """
    cliques: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p:
            if not x:
                cliques.append(r)
            return
        # pivot: the lowest id of p | x with the most neighbours in p
        # (``bit & -bit`` isolates the lowest set bit)
        best = -1
        rest = p | x
        while rest:
            bit = rest & -rest
            rest ^= bit
            u = bit.bit_length() - 1
            count = (adjacency[u] & p).bit_count()
            if count > best:
                best, pivot = count, u
        rest = p & ~adjacency[pivot]
        while rest:
            if len(cliques) >= max_cliques:
                return
            bit = rest & -rest
            rest ^= bit
            nbrs = adjacency[bit.bit_length() - 1]
            expand(r | bit, p & nbrs, x & nbrs)
            p ^= bit
            x |= bit

    if max_cliques > 0:
        expand(0, sum(1 << node for node in adjacency), 0)
    return cliques


def count_motifs(graph: Graph, size: int = 3) -> dict[str, int]:
    """Census of connected induced subgraphs on ``size`` nodes (3 or 4).

    For ``size == 3`` counts ``path_3`` (wedges) and ``triangle``.  For
    ``size == 4`` counts ``path_4``, ``star_4``, ``cycle_4``, ``tadpole``
    (triangle + pendant), ``diamond`` and ``clique_4``.  Enumeration is
    exhaustive, so use on small/medium graphs only.
    """
    if isinstance(graph, DiGraph):
        raise GraphError("motif census requires an undirected graph")
    if size not in (3, 4):
        raise GraphError("motif census supports sizes 3 and 4")
    adjacency = {node: set(graph.neighbors(node)) - {node}
                 for node in graph.nodes()}
    nodes = list(adjacency)
    counts: dict[str, int] = {}

    def classify(subset: tuple[Node, ...]) -> str | None:
        edges = sum(1 for u, v in itertools.combinations(subset, 2)
                    if v in adjacency[u])
        if size == 3:
            return {2: "path_3", 3: "triangle"}.get(edges)
        degrees = sorted(
            sum(1 for v in subset if v != u and v in adjacency[u])
            for u in subset)
        if edges == 3 and degrees == [1, 1, 2, 2]:
            return "path_4"
        if edges == 3 and degrees == [1, 1, 1, 3]:
            return "star_4"
        if edges == 4 and degrees == [2, 2, 2, 2]:
            return "cycle_4"
        if edges == 4 and degrees == [1, 2, 2, 3]:
            return "tadpole"
        if edges == 5:
            return "diamond"
        if edges == 6:
            return "clique_4"
        return None  # disconnected

    for subset in itertools.combinations(nodes, size):
        label = classify(subset)
        if label is not None:
            counts[label] = counts.get(label, 0) + 1
    return counts


def motif_census(graph: Graph) -> dict[str, int]:
    """Summary motif profile: triangles, wedges, 4-cliques and max clique."""
    census = dict(count_motifs(graph, 3))
    best = 0
    for clique in find_cliques(graph):
        best = max(best, len(clique))
    census["max_clique"] = best
    return census
