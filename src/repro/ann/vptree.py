"""Vantage-point tree: an exact metric-tree baseline for the ANN suite.

VP-trees answer exact k-NN by triangle-inequality pruning.  They are the
classical pre-proximity-graph family (the paper's Sec. II-D contrasts
PGs against "other indexes"); including one lets E6 show where graph
indexes win: VP-trees are exact but prune poorly in high dimensions.
"""

from __future__ import annotations

import heapq
import random

import numpy as np

from ..errors import IndexError_
from .base import AnnIndex, SearchResult


class _Node:
    __slots__ = ("point_id", "radius", "inside", "outside")

    def __init__(self, point_id: int) -> None:
        self.point_id = point_id
        self.radius = 0.0
        self.inside: "_Node | None" = None
        self.outside: "_Node | None" = None


class VPTreeIndex(AnnIndex):
    """Exact k-NN via a vantage-point tree (leaf size 1)."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = seed
        self._root: _Node | None = None

    def _build(self, data: np.ndarray) -> None:
        rng = random.Random(self.seed)
        ids = list(range(data.shape[0]))
        self._root = self._build_node(data, ids, rng)

    def _build_node(self, data: np.ndarray, ids: list[int],
                    rng: random.Random) -> "_Node | None":
        if not ids:
            return None
        vantage = ids[rng.randrange(len(ids))]
        rest = [i for i in ids if i != vantage]
        node = _Node(vantage)
        if not rest:
            return node
        distances = np.linalg.norm(data[rest] - data[vantage], axis=1)
        node.radius = float(np.median(distances))
        inside = [i for i, d in zip(rest, distances) if d <= node.radius]
        outside = [i for i, d in zip(rest, distances) if d > node.radius]
        node.inside = self._build_node(data, inside, rng)
        node.outside = self._build_node(data, outside, rng)
        return node

    def _search_batch(self, queries: np.ndarray,
                      k: int) -> list[list[SearchResult]]:
        return [self._descend(query, k) for query in queries]

    def _descend(self, query: np.ndarray, k: int) -> list[SearchResult]:
        if self._root is None:
            raise IndexError_("index not built")  # pragma: no cover
        # max-heap of the k best (negated distances)
        best: list[tuple[float, int]] = []

        def visit(node: "_Node | None") -> None:
            if node is None:
                return
            d = self._distance(query, node.point_id)
            if len(best) < k:
                heapq.heappush(best, (-d, node.point_id))
            elif d < -best[0][0]:
                heapq.heapreplace(best, (-d, node.point_id))
            tau = -best[0][0] if len(best) == k else np.inf
            if node.inside is None and node.outside is None:
                return
            if d <= node.radius:
                visit(node.inside)
                tau = -best[0][0] if len(best) == k else np.inf
                if d + tau > node.radius:
                    visit(node.outside)
            else:
                visit(node.outside)
                tau = -best[0][0] if len(best) == k else np.inf
                if d - tau <= node.radius:
                    visit(node.inside)

        visit(self._root)
        hits = sorted((-negd, pid) for negd, pid in best)
        return [SearchResult(pid, d) for d, pid in hits]
