"""Community detection: label propagation, greedy modularity, modularity score."""

from __future__ import annotations

import random
from typing import Iterable, Sequence

import numpy as np

from ..errors import GraphError
from ..graphs.graph import DiGraph, Graph, Node
from ..graphs.topology import TopologyView


def _require_undirected(graph: Graph) -> None:
    if isinstance(graph, DiGraph):
        raise GraphError("community detection requires an undirected graph")


def modularity(graph: Graph, communities: Sequence[Iterable[Node]]) -> float:
    """Newman modularity ``Q`` of a node partition.

    Raises :class:`GraphError` if ``communities`` is not a partition of the
    node set.
    """
    _require_undirected(graph)
    membership: dict[Node, int] = {}
    for cid, community in enumerate(communities):
        for node in community:
            if node in membership:
                raise GraphError(f"node {node!r} in two communities")
            if node not in graph:
                raise GraphError(f"node {node!r} not in graph")
            membership[node] = cid
    if len(membership) != graph.number_of_nodes():
        raise GraphError("communities do not cover all nodes")
    m = graph.number_of_edges()
    if m == 0:
        return 0.0
    q = 0.0
    degree = {node: graph.degree(node) for node in graph.nodes()}
    internal: dict[int, int] = {}
    degree_sum: dict[int, int] = {}
    for u, v in graph.edges():
        if membership[u] == membership[v]:
            internal[membership[u]] = internal.get(membership[u], 0) + 1
    for node, cid in membership.items():
        degree_sum[cid] = degree_sum.get(cid, 0) + degree[node]
    for cid in range(len(communities)):
        lc = internal.get(cid, 0)
        dc = degree_sum.get(cid, 0)
        q += lc / m - (dc / (2.0 * m)) ** 2
    return q


def label_propagation(graph: Graph, max_iter: int = 100,
                      seed: int = 0) -> list[set[Node]]:
    """Asynchronous label propagation (Raghavan et al.).

    Deterministic given ``seed``.  Returns the communities sorted by size
    (largest first).  The final labels are memoised on the graph's view
    (one slot, the last ``max_iter`` / ``seed``); the sets are built
    afresh on every call, members added in node order.
    """
    view, labels, __ = _label_propagation(graph, max_iter, seed)
    groups: dict[int, set[Node]] = {}
    for node, label in zip(view.nodes, labels.tolist()):
        groups.setdefault(label, set()).add(node)
    return sorted(groups.values(), key=len, reverse=True)


def _label_propagation_modularity(graph: Graph, max_iter: int = 100,
                                  seed: int = 0) -> float:
    """``modularity(graph, label_propagation(graph, max_iter, seed))``,
    read from the memo slot that holds the labels."""
    return _label_propagation(graph, max_iter, seed)[2]


def _label_propagation(graph: Graph, max_iter: int,
                       seed: int) -> tuple[TopologyView, np.ndarray, float]:
    """The view, the final label of each node id and the modularity of
    that partition, memoised together in the view's one slot."""
    _require_undirected(graph)
    view = TopologyView.of(graph)

    def compute() -> tuple[np.ndarray, float]:
        labels = _propagate(view.adj, max_iter, seed)
        return (np.array(labels, dtype=np.intp),
                _partition_modularity(view, labels))

    labels, score = view.memo("label_propagation", (max_iter, seed), compute)
    return view, labels, score


def _propagate(rows: tuple[tuple[int, ...], ...], max_iter: int,
               seed: int) -> list[int]:
    """The final label of each node id."""
    rng = random.Random(seed)
    labels = list(range(len(rows)))
    order = list(range(len(rows)))
    for __ in range(max_iter):
        rng.shuffle(order)
        changed = False
        for node in order:
            counts: dict[int, int] = {}
            for neighbor in rows[node]:
                if neighbor != node:
                    label = labels[neighbor]
                    counts[label] = counts.get(label, 0) + 1
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
    return labels


def _partition_modularity(view: TopologyView, labels: list[int]) -> float:
    """:func:`modularity` of the undirected ``view`` split by ``labels``,
    its terms summed in :func:`label_propagation`'s community order so
    the float is the same."""
    m = view.n_edges
    if m == 0:
        return 0.0
    sizes: dict[int, int] = {}  # first-seen order, as the groups are
    internal: dict[int, int] = {}
    degree_sum: dict[int, int] = {}
    for u, row in enumerate(view.adj):
        label = labels[u]
        sizes[label] = sizes.get(label, 0) + 1
        # a self-loop is listed once in its row and counts twice
        degree_sum[label] = degree_sum.get(label, 0) + len(row) + (u in row)
        for v in row:
            if v >= u and labels[v] == label:
                internal[label] = internal.get(label, 0) + 1
    q = 0.0
    for label in sorted(sizes, key=sizes.__getitem__, reverse=True):
        q += internal.get(label, 0) / m - (degree_sum[label] / (2.0 * m)) ** 2
    return q


def greedy_modularity_communities(graph: Graph) -> list[set[Node]]:
    """CNM-style greedy agglomeration: merge the pair of communities with
    the best modularity gain until no merge improves Q.

    Returns communities sorted by size (largest first).
    """
    _require_undirected(graph)
    m = graph.number_of_edges()
    if m == 0:
        return [{node} for node in graph.nodes()]
    communities: dict[int, set[Node]] = {
        i: {node} for i, node in enumerate(graph.nodes())}
    membership = {node: i for i, node in enumerate(graph.nodes())}
    # e[i][j]: number of edges between communities i and j
    e: dict[int, dict[int, int]] = {i: {} for i in communities}
    a: dict[int, int] = {i: 0 for i in communities}  # degree sums
    for u, v in graph.edges():
        cu, cv = membership[u], membership[v]
        e[cu][cv] = e[cu].get(cv, 0) + 1
        if cu != cv:
            e[cv][cu] = e[cv].get(cu, 0) + 1
    for node in graph.nodes():
        a[membership[node]] += graph.degree(node)

    def gain(i: int, j: int) -> float:
        eij = e[i].get(j, 0)
        return eij / m - a[i] * a[j] / (2.0 * m * m)

    while len(communities) > 1:
        best_pair = None
        best_gain = 1e-12  # only strictly positive merges
        for i in communities:
            for j in e[i]:
                if j <= i or j not in communities:
                    continue
                g = gain(i, j)
                if g > best_gain:
                    best_gain = g
                    best_pair = (i, j)
        if best_pair is None:
            break
        i, j = best_pair
        communities[i] |= communities.pop(j)
        a[i] += a.pop(j)
        for k, count in e.pop(j).items():
            if k == j:
                continue
            if k == i:
                e[i][i] = e[i].get(i, 0) + count
                e[i].pop(j, None)
            else:
                e[i][k] = e[i].get(k, 0) + count
                e[k][i] = e[i][k]
                e[k].pop(j, None)
        e[i].pop(j, None)
    return sorted(communities.values(), key=len, reverse=True)
