"""Exact nearest-neighbor search by linear scan (the ground truth)."""

from __future__ import annotations

import numpy as np

from .base import AnnIndex, SearchResult
from .kernels import gathered_distances, matmul_sq_distances, stable_topk


class BruteForceIndex(AnnIndex):
    """Exact k-NN by scanning the whole data matrix per query."""

    def _build(self, data: np.ndarray) -> None:
        # row norms are precomputed by the base class
        return

    def _insert_one(self, new_id: int) -> None:
        # the appended row and refreshed norms are the whole structure
        return

    def _search_batch(self, queries: np.ndarray,
                      k: int) -> list[list[SearchResult]]:
        """All queries against all points with one matmul.

        The matmul form of the squared distance is only used to *select*
        candidates (with a small safety margin past ``k``); the selected
        ids are then re-scored with the exact gather kernel and stably
        re-ranked, so the reported distances are the canonical floats.
        """
        assert self._data is not None and self._sq_norms is not None
        n = self._data.shape[0]
        d2 = matmul_sq_distances(self._data, self._sq_norms, queries)
        # one matmul row == one full scan of the data
        self.distance_computations += queries.shape[0] * n
        margin = min(n, k + 8)
        results: list[list[SearchResult]] = []
        for row in range(queries.shape[0]):
            pool = stable_topk(d2[row], margin)
            exact = gathered_distances(self._data, pool, queries[row])
            order = np.lexsort((pool, exact))[:k]
            results.append([
                SearchResult(int(pool[i]), float(exact[i]))
                for i in order
            ])
        return results
