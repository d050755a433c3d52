"""Centrality measures: degree, closeness, betweenness (Brandes), PageRank."""

from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import GraphError
from ..graphs.graph import DiGraph, Graph, Node
from ..graphs.topology import TopologyView
from .traversal import bfs_distances


def degree_centrality(graph: Graph) -> dict[Node, float]:
    """Degree divided by ``n - 1`` (0.0 for graphs with < 2 nodes)."""
    n = graph.number_of_nodes()
    if n < 2:
        return {node: 0.0 for node in graph.nodes()}
    return {node: graph.degree(node) / (n - 1) for node in graph.nodes()}


def closeness_centrality(graph: Graph) -> dict[Node, float]:
    """Wasserman-Faust closeness, robust to disconnected graphs."""
    n = graph.number_of_nodes()
    result: dict[Node, float] = {}
    for node in graph.nodes():
        distances = bfs_distances(graph, node)
        reachable = len(distances) - 1
        total = sum(distances.values())
        if reachable > 0 and total > 0 and n > 1:
            result[node] = (reachable / (n - 1)) * (reachable / total)
        else:
            result[node] = 0.0
    return result


def betweenness_centrality(graph: Graph,
                           normalized: bool = True) -> dict[Node, float]:
    """Brandes' exact betweenness centrality (unweighted)."""
    betweenness = {node: 0.0 for node in graph.nodes()}
    step = (graph.successors if isinstance(graph, DiGraph)
            else graph.neighbors)
    for source in graph.nodes():
        # single-source shortest-path DAG
        order: list[Node] = []
        preds: dict[Node, list[Node]] = {node: [] for node in graph.nodes()}
        sigma = {node: 0.0 for node in graph.nodes()}
        sigma[source] = 1.0
        dist: dict[Node, int] = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            order.append(node)
            for neighbor in step(node):
                if neighbor not in dist:
                    dist[neighbor] = dist[node] + 1
                    queue.append(neighbor)
                if dist[neighbor] == dist[node] + 1:
                    sigma[neighbor] += sigma[node]
                    preds[neighbor].append(node)
        # accumulation
        delta = {node: 0.0 for node in graph.nodes()}
        for node in reversed(order):
            for pred in preds[node]:
                delta[pred] += (sigma[pred] / sigma[node]) * (1 + delta[node])
            if node != source:
                betweenness[node] += delta[node]
    n = graph.number_of_nodes()
    if not graph.directed:
        for node in betweenness:
            betweenness[node] /= 2.0
    if normalized and n > 2:
        scale = ((n - 1) * (n - 2)) if graph.directed \
            else ((n - 1) * (n - 2) / 2.0)
        for node in betweenness:
            betweenness[node] /= scale
    return betweenness


def pagerank(graph: Graph, damping: float = 0.85, max_iter: int = 100,
             tol: float = 1e-9) -> dict[Node, float]:
    """Power-iteration PageRank; dangling mass is spread uniformly.

    One ``np.bincount`` per iteration over the graph's arc arrays.  The
    floats are those of the plain loop ``for u: for v in out(u):
    nxt[v] += share[u]`` started from the teleport term: ``bincount``
    adds its weights left to right, the arc list opens with one
    pseudo-arc per node carrying that term, and the real arcs follow in
    source order.  The two scalar reductions go through Python ``sum``
    — numpy's pairwise ``.sum()`` would round differently.
    """
    if not 0.0 < damping < 1.0:
        raise GraphError("damping must be in (0, 1)")
    view = TopologyView.of(graph)
    n = len(view.nodes)
    if n == 0:
        return {}
    out_degree = np.diff(view.indptr)
    dangling = np.flatnonzero(out_degree == 0)
    sources = np.repeat(np.arange(n), out_degree)
    targets = np.concatenate((np.arange(n), view.indices))
    weights = np.empty(len(targets))
    teleport, shares = weights[:n], weights[n:]
    # a dangling node has no arc to read its share through
    divisor = np.maximum(out_degree, 1).astype(float)
    rank = np.full(n, 1.0 / n)
    scratch = np.empty(n)
    for __ in range(max_iter):
        lost = sum(rank[dangling].tolist())
        teleport.fill((1.0 - damping) / n + damping * lost / n)
        np.multiply(rank, damping, out=scratch)
        np.divide(scratch, divisor, out=scratch)
        # every source is in range; "clip" only spares the bounds pass
        scratch.take(sources, out=shares, mode="clip")
        nxt = np.bincount(targets, weights, minlength=n)
        np.subtract(nxt, rank, out=scratch)
        err = sum(np.abs(scratch, out=scratch).tolist())
        rank = nxt
        if err < tol:
            break
    return dict(zip(view.nodes, rank.tolist()))
