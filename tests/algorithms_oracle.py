"""The object-graph bodies the array view replaced, kept as oracles.

Verbatim from the commit before ``repro.algorithms`` moved PageRank, the
clustering family and label propagation onto
:class:`repro.graphs.TopologyView`: dict-of-dict walks over node
objects.  ``tests/test_algorithms_oracle.py`` requires the new bodies to
return *equal* values — same floats, same key order, same random draws —
not close ones; the networkx differentials stay as the outer oracle.
"""

from __future__ import annotations

import random

from repro.errors import GraphError
from repro.graphs.graph import DiGraph, Graph, Node


def pagerank(graph: Graph, damping: float = 0.85, max_iter: int = 100,
             tol: float = 1e-9) -> dict[Node, float]:
    """Power-iteration PageRank; dangling mass is spread uniformly."""
    if not 0.0 < damping < 1.0:
        raise GraphError("damping must be in (0, 1)")
    nodes = list(graph.nodes())
    n = len(nodes)
    if n == 0:
        return {}
    step = (graph.successors if isinstance(graph, DiGraph)
            else graph.neighbors)
    out_degree = {node: sum(1 for __ in step(node)) for node in nodes}
    rank = {node: 1.0 / n for node in nodes}
    for __ in range(max_iter):
        dangling = sum(rank[node] for node in nodes if out_degree[node] == 0)
        nxt = {node: (1.0 - damping) / n + damping * dangling / n
               for node in nodes}
        for node in nodes:
            if out_degree[node] == 0:
                continue
            share = damping * rank[node] / out_degree[node]
            for neighbor in step(node):
                nxt[neighbor] += share
        err = sum(abs(nxt[node] - rank[node]) for node in nodes)
        rank = nxt
        if err < tol:
            break
    return rank


def _require_undirected(graph: Graph) -> None:
    if isinstance(graph, DiGraph):
        raise GraphError("requires an undirected graph")


def triangles(graph: Graph) -> dict[Node, int]:
    """Number of triangles through each node."""
    _require_undirected(graph)
    neighbor_sets = {node: set(graph.neighbors(node)) - {node}
                     for node in graph.nodes()}
    counts: dict[Node, int] = {}
    for node, nbrs in neighbor_sets.items():
        t = sum(len(nbrs & neighbor_sets[other]) for other in nbrs)
        counts[node] = t // 2
    return counts


def clustering_coefficient(graph: Graph) -> dict[Node, float]:
    """Local clustering coefficient of each node (0.0 for degree < 2)."""
    _require_undirected(graph)
    tri = triangles(graph)
    coefficients: dict[Node, float] = {}
    for node in graph.nodes():
        d = len(set(graph.neighbors(node)) - {node})
        coefficients[node] = (2.0 * tri[node] / (d * (d - 1))) if d >= 2 \
            else 0.0
    return coefficients


def average_clustering(graph: Graph) -> float:
    """Mean of the local clustering coefficients (0.0 for empty graphs)."""
    coefficients = clustering_coefficient(graph)
    if not coefficients:
        return 0.0
    return sum(coefficients.values()) / len(coefficients)


def transitivity(graph: Graph) -> float:
    """Global transitivity: ``3 * triangles / open-or-closed triads``."""
    _require_undirected(graph)
    tri_total = sum(triangles(graph).values())  # each triangle counted 3x
    triads = 0
    for node in graph.nodes():
        d = len(set(graph.neighbors(node)) - {node})
        triads += d * (d - 1) // 2
    if triads == 0:
        return 0.0
    return tri_total / triads


def label_propagation(graph: Graph, max_iter: int = 100,
                      seed: int = 0) -> list[set[Node]]:
    """Asynchronous label propagation (Raghavan et al.).

    Deterministic given ``seed``.  Returns the communities sorted by size
    (largest first).
    """
    _require_undirected(graph)
    rng = random.Random(seed)
    labels = {node: i for i, node in enumerate(graph.nodes())}
    nodes = list(graph.nodes())
    for __ in range(max_iter):
        rng.shuffle(nodes)
        changed = False
        for node in nodes:
            counts: dict[int, int] = {}
            for neighbor in graph.neighbors(node):
                if neighbor == node:
                    continue
                counts[labels[neighbor]] = counts.get(labels[neighbor], 0) + 1
            if not counts:
                continue
            best = max(counts.values())
            best_labels = sorted(l for l, c in counts.items() if c == best)
            new_label = rng.choice(best_labels)
            if new_label != labels[node]:
                labels[node] = new_label
                changed = True
        if not changed:
            break
    groups: dict[int, set[Node]] = {}
    for node, label in labels.items():
        groups.setdefault(label, set()).add(node)
    return sorted(groups.values(), key=len, reverse=True)


def graph_edges(graph: Graph) -> list[tuple[Node, Node]]:
    """``Graph.edges`` before it walked nodes instead of hashing pairs:
    each undirected edge once, deduplicated by a set of ``(u, v)``."""
    out = []
    seen: set[tuple[Node, Node]] = set()
    for u, nbrs in graph._adj.items():
        for v in nbrs:
            if (v, u) not in seen:
                seen.add((u, v))
                out.append((u, v))
    return out
