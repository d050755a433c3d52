"""Triangles, local clustering coefficients and transitivity."""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from ..graphs.graph import DiGraph, Graph, Node
from ..graphs.topology import TopologyView, neighbor_sets


def _triangles_and_degrees(graph: Graph) -> tuple[TopologyView, list[int],
                                                  list[int]]:
    """Per node id: triangles through it and its loop-free degree.

    Counted once per view (see :meth:`TopologyView.memo`); the lists
    are new on every call.
    """
    if isinstance(graph, DiGraph):
        raise GraphError("clustering metrics require an undirected graph")
    view = TopologyView.of(graph)
    counts, degrees = view.memo("triangles", (),
                                lambda: _count_triangles(view))
    return view, counts.tolist(), degrees.tolist()


def _count_triangles(view: TopologyView) -> tuple[np.ndarray, np.ndarray]:
    sets = neighbor_sets(view.adj)
    n = len(sets)
    counts = np.fromiter((sum(len(nbrs & sets[other]) for other in nbrs)
                          // 2 for nbrs in sets), dtype=np.intp, count=n)
    return counts, np.fromiter(map(len, sets), dtype=np.intp, count=n)


def triangles(graph: Graph) -> dict[Node, int]:
    """Number of triangles through each node."""
    view, counts, __ = _triangles_and_degrees(graph)
    return dict(zip(view.nodes, counts))


def clustering_coefficient(graph: Graph) -> dict[Node, float]:
    """Local clustering coefficient of each node (0.0 for degree < 2)."""
    view, counts, degrees = _triangles_and_degrees(graph)
    return {node: (2.0 * t / (d * (d - 1))) if d >= 2 else 0.0
            for node, t, d in zip(view.nodes, counts, degrees)}


def average_clustering(graph: Graph) -> float:
    """Mean of the local clustering coefficients (0.0 for empty graphs)."""
    coefficients = clustering_coefficient(graph)
    if not coefficients:
        return 0.0
    return sum(coefficients.values()) / len(coefficients)


def transitivity(graph: Graph) -> float:
    """Global transitivity: ``3 * triangles / open-or-closed triads``."""
    __, counts, degrees = _triangles_and_degrees(graph)
    triads = sum(d * (d - 1) // 2 for d in degrees)
    if triads == 0:
        return 0.0
    return sum(counts) / triads  # each triangle counted 3x
