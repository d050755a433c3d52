"""Hierarchical navigable small world (HNSW) baseline index.

A standard HNSW: each point gets a geometric random level; upper layers
are sparse navigation graphs, the bottom layer holds everyone.  Insertion
greedily descends to the target layer, then connects to the ``M`` best
candidates chosen by the Malkov-Yashunin select-neighbors heuristic.
"""

from __future__ import annotations

import heapq
import math
import random

import numpy as np

from repro.ann import AnnIndex, SearchResult
from repro.errors import IndexError_

from .counted import counted_distances


class HNSWIndex(AnnIndex):
    """HNSW graph index (incremental insertion, heuristic pruning)."""

    def __init__(self, m: int = 12, ef_construction: int = 64,
                 ef_search: int = 32, seed: int = 0) -> None:
        super().__init__()
        if m < 1 or ef_construction < 1 or ef_search < 1:
            raise IndexError_("m/ef parameters must be >= 1")
        self.m = m
        self.m0 = 2 * m  # bottom-layer degree cap
        self.ef_construction = ef_construction
        self.ef_search = ef_search
        self.seed = seed
        self._level_mult = 1.0 / math.log(m + 1)
        # layers[l][u] -> neighbor list of u at layer l
        self.layers: list[dict[int, list[int]]] = []
        self.entry_point = 0
        self.max_level = -1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, data: np.ndarray) -> None:
        rng = random.Random(self.seed)
        self.layers = []
        self.max_level = -1
        for u in range(data.shape[0]):
            self._insert(data, u, rng)

    def _insert_one(self, new_id: int) -> None:
        """Incremental insert — HNSW insertion is natively incremental.

        The per-insert RNG is derived from ``(seed, new_id)`` so the
        level draw is a pure function of the vector's identity, not of
        how many inserts happened before; a later
        :meth:`~repro.ann.AnnIndex.compact` rebuilds with the
        fresh-build RNG stream and restores bit-compatibility.
        """
        assert self._data is not None
        rng = random.Random(f"{self.seed}:{new_id}")
        self._insert(self._data, new_id, rng)

    def _random_level(self, rng: random.Random) -> int:
        return int(-math.log(max(rng.random(), 1e-12)) * self._level_mult)

    def _insert(self, data: np.ndarray, u: int, rng: random.Random) -> None:
        level = self._random_level(rng)
        while len(self.layers) <= level:
            self.layers.append({})
        for l in range(level + 1):
            self.layers[l].setdefault(u, [])
        if self.max_level < 0:
            self.entry_point = u
            self.max_level = level
            return
        query = data[u]
        entry = self.entry_point
        # greedy descent through layers above the insertion level
        for l in range(self.max_level, level, -1):
            entry = self._greedy_step(query, entry, l)
        # connect at each layer from min(level, max_level) down to 0
        for l in range(min(level, self.max_level), -1, -1):
            candidates = self._search_layer(query, entry, l,
                                            self.ef_construction)
            cap = self.m0 if l == 0 else self.m
            chosen = self._select_neighbors(data, query, candidates, cap)
            self.layers[l][u] = [c for __, c in chosen]
            for __, c in chosen:
                self.layers[l][c].append(u)
                if len(self.layers[l][c]) > cap:
                    self._shrink(data, c, l, cap)
            if candidates:
                entry = candidates[0][1]
        if level > self.max_level:
            self.max_level = level
            self.entry_point = u

    def _select_neighbors(self, data: np.ndarray, query: np.ndarray,
                          candidates: list[tuple[float, int]],
                          cap: int) -> list[tuple[float, int]]:
        """Heuristic pruning: keep candidates closer to the query than to
        any already-kept neighbor (diversifies directions)."""
        chosen: list[tuple[float, int]] = []
        for dist, c in sorted(candidates):
            if len(chosen) >= cap:
                break
            keep = True
            for __, kept in chosen:
                if float(np.linalg.norm(data[c] - data[kept])) < dist:
                    keep = False
                    break
            if keep:
                chosen.append((dist, c))
        # backfill with nearest skipped candidates if underfull
        if len(chosen) < cap:
            chosen_ids = {c for __, c in chosen}
            for dist, c in sorted(candidates):
                if len(chosen) >= cap:
                    break
                if c not in chosen_ids:
                    chosen.append((dist, c))
                    chosen_ids.add(c)
        return chosen

    def _shrink(self, data: np.ndarray, node: int, layer: int,
                cap: int) -> None:
        nbrs = self.layers[layer][node]
        scored = [(float(np.linalg.norm(data[v] - data[node])), v)
                  for v in nbrs]
        chosen = self._select_neighbors(data, data[node], scored, cap)
        self.layers[layer][node] = [v for __, v in chosen]

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _greedy_step(self, query: np.ndarray, entry: int, layer: int) -> int:
        """Greedy descent scoring each node's whole adjacency at once.

        Every hop moves to the nearest neighbor of the current node
        (first-listed on ties) while that is strictly closer than the
        current node itself.
        """
        adjacency = self.layers[layer]
        current = entry
        d = float(counted_distances(self, query, [current])[0])
        while True:
            nbrs = adjacency.get(current)
            if not nbrs:
                return current
            dists = counted_distances(self, query, nbrs)
            j = int(np.argmin(dists))
            if not dists[j] < d:
                return current
            current, d = nbrs[j], float(dists[j])

    def _search_layer(self, query: np.ndarray, entry: int, layer: int,
                      ef: int) -> list[tuple[float, int]]:
        """Best-first beam search within one layer.

        The same body serves construction and query: it walks the live
        neighbor lists, filters them against the visited set in Python,
        and scores each expansion's whole frontier with one vectorized
        distance call.
        """
        adjacency = self.layers[layer]
        d0 = float(counted_distances(self, query, [entry])[0])
        visited = {entry}
        candidates = [(d0, entry)]
        # best: max-heap (negated) of the ef closest found so far
        best: list[tuple[float, int]] = [(-d0, entry)]
        while candidates:
            dist, node = heapq.heappop(candidates)
            if dist > -best[0][0] and len(best) >= ef:
                break
            fresh = []
            for v in adjacency.get(node, ()):
                if v not in visited:
                    visited.add(v)
                    fresh.append(v)
            if not fresh:
                continue
            dists = counted_distances(self, query, fresh)
            for neighbor, d in zip(fresh, dists.tolist()):
                if len(best) < ef or d < -best[0][0]:
                    heapq.heappush(candidates, (d, neighbor))
                    heapq.heappush(best, (-d, neighbor))
                    if len(best) > ef:
                        heapq.heappop(best)
        return sorted((-negd, node) for negd, node in best)

    def _search_batch(self, queries: np.ndarray,
                      k: int) -> list[list[SearchResult]]:
        ef = max(self.ef_search, k)
        results: list[list[SearchResult]] = []
        for query in queries:
            entry = self.entry_point
            for l in range(self.max_level, 0, -1):
                entry = self._greedy_step(query, entry, l)
            hits = self._search_layer(query, entry, 0, ef)
            results.append([SearchResult(node, d) for d, node in hits[:k]])
        return results
