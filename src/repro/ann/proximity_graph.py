"""Shared machinery for proximity-graph (PG) indexes.

A PG index is a graph over the data vectors; queries are answered by
greedy beam routing from a fixed entry point (the medoid).  Subclasses
only decide which edges to keep — the routing, candidate generation and
connectivity repair live here.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import deque

import numpy as np

from ..errors import IndexError_
from .base import AnnIndex, SearchResult


class ProximityGraphIndex(AnnIndex):
    """Base class for graph-based ANN indexes (MRNG, tau-MG).

    Parameters
    ----------
    max_degree:
        Out-degree cap per node.
    candidate_pool:
        Number of nearest candidates considered per node at build time
        (exact kNN via chunked brute force); the occlusion rule prunes
        within this pool.
    ef_search:
        Default beam width at query time.
    """

    def __init__(self, max_degree: int = 24, candidate_pool: int = 64,
                 ef_search: int = 32) -> None:
        super().__init__()
        if max_degree < 1 or candidate_pool < 1 or ef_search < 1:
            raise IndexError_("degree/pool/ef parameters must be >= 1")
        self.max_degree = max_degree
        self.candidate_pool = candidate_pool
        self.ef_search = ef_search
        self.neighbors: list[list[int]] = []
        self.entry_point = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, data: np.ndarray) -> None:
        n = data.shape[0]
        pool = min(self.candidate_pool, n - 1)
        self.neighbors = [[] for __ in range(n)]
        if n == 1:
            self.entry_point = 0
            return
        knn = self._exact_knn(data, pool)
        for u in range(n):
            candidates = knn[u]
            distances = np.linalg.norm(data[candidates] - data[u], axis=1)
            order = np.argsort(distances, kind="stable")
            selected: list[int] = []
            for idx in order:
                v = int(candidates[idx])
                d_uv = float(distances[idx])
                if self._occludes(data, u, v, d_uv, selected):
                    continue
                selected.append(v)
                if len(selected) >= self.max_degree:
                    break
            self.neighbors[u] = selected
        self.entry_point = self._medoid(data)
        self._repair_connectivity(data)

    def _insert_one(self, new_id: int) -> None:
        """Incremental insert: local occlusion pruning, no rebuild.

        The new node's out-edges are selected with the subclass
        occlusion rule over its exact nearest candidates — the same
        rule a fresh build applies — but existing nodes are *not*
        re-pruned, so the graph drifts from the fresh-build shape until
        :meth:`~repro.ann.base.AnnIndex.compact` restores exact parity.
        Reverse edges keep the new node reachable from the entry point
        (reachability outranks the degree cap, as in ``_repair_
        connectivity``).
        """
        assert self._data is not None
        data = self._data
        if new_id == 0 or len(self.neighbors) == 0:
            # first vector, or insert into a 1-row index built fresh
            self.neighbors = [[] for __ in range(new_id + 1)]
            self.entry_point = 0
            return
        diffs = data[:new_id] - data[new_id]
        dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        order = np.argsort(dists, kind="stable")
        pool = order[:min(self.candidate_pool, new_id)]
        selected: list[int] = []
        for idx in pool:
            v = int(idx)
            d_uv = float(dists[idx])
            if self._occludes(data, new_id, v, d_uv, selected):
                continue
            selected.append(v)
            if len(selected) >= self.max_degree:
                break
        self.neighbors.append(selected)
        attached = False
        for v in selected:
            if len(self.neighbors[v]) < self.max_degree:
                self.neighbors[v].append(new_id)
                attached = True
        if not attached:
            # every selected neighbor is at capacity (or none selected):
            # attach from the nearest node anyway so routing can reach us
            nearest = int(order[0])
            self.neighbors[nearest].append(new_id)

    @staticmethod
    def _exact_knn(data: np.ndarray, k: int) -> np.ndarray:
        """Exact kNN ids per point, chunked to bound memory."""
        n = data.shape[0]
        result = np.empty((n, k), dtype=np.int64)
        chunk = max(1, int(2e7) // max(n, 1))
        sq_norms = np.einsum("ij,ij->i", data, data)
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            block = data[start:stop]
            d2 = (sq_norms[start:stop, None] - 2.0 * block @ data.T
                  + sq_norms[None, :])
            for row, global_i in enumerate(range(start, stop)):
                d2[row, global_i] = np.inf  # exclude self
            idx = np.argpartition(d2, kth=k - 1, axis=1)[:, :k]
            # sort the k candidates by distance
            rows = np.arange(stop - start)[:, None]
            order = np.argsort(d2[rows, idx], axis=1, kind="stable")
            result[start:stop] = idx[rows, order]
        return result

    def _medoid(self, data: np.ndarray) -> int:
        centroid = data.mean(axis=0)
        return int(np.argmin(np.linalg.norm(data - centroid, axis=1)))

    def _repair_connectivity(self, data: np.ndarray) -> None:
        """Make every node reachable from the entry point.

        Unreachable nodes get an incoming edge from their nearest
        reachable node (appended even past the degree cap — reachability
        outranks the cap, as in the NSG/tau-MG reference builds).
        """
        n = data.shape[0]
        reachable = self._reachable_from_entry(n)
        while len(reachable) < n:
            missing = np.array(sorted(set(range(n)) - reachable))
            reach_list = np.array(sorted(reachable))
            # attach the missing node closest to any reachable node
            best = None
            for u in missing:
                d = np.linalg.norm(data[reach_list] - data[u], axis=1)
                j = int(np.argmin(d))
                if best is None or d[j] < best[0]:
                    best = (float(d[j]), int(reach_list[j]), int(u))
            assert best is not None
            __, source, target = best
            self.neighbors[source].append(target)
            newly = self._reachable_from(target, n)
            reachable |= newly

    def _reachable_from_entry(self, n: int) -> set[int]:
        return self._reachable_from(self.entry_point, n)

    def _reachable_from(self, start: int, n: int) -> set[int]:
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in self.neighbors[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen

    # ------------------------------------------------------------------
    # subclass hook: the edge occlusion rule
    # ------------------------------------------------------------------
    def _occludes(self, data: np.ndarray, u: int, v: int, d_uv: float,
                  selected: list[int]) -> bool:
        """True if an already-selected neighbor occludes candidate ``v``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # search: greedy beam routing
    # ------------------------------------------------------------------
    def _search_batch(self, queries: np.ndarray,
                      k: int) -> list[list[SearchResult]]:
        """Lockstep best-first beam search from the entry point.

        Each query runs its own beam search — pop the nearest
        candidate, stop once it is farther than the ``ef``-th best,
        expand its unvisited neighbors — but every round the frontier
        expansions of *all* still-active queries are scored with one
        concatenated gather + einsum, amortizing the numpy call
        overhead across the batch.  A query's pops, visit order and
        heap updates do not depend on its batch mates.
        """
        assert self._data is not None
        m = queries.shape[0]
        n = self._data.shape[0]
        ef = max(self.ef_search, k)
        lists = self.neighbors
        start = self.entry_point
        # entry distances for every query in one shot (rows are x - q,
        # the canonical evaluation order of the gather kernel)
        diff = self._data[start] - queries
        d0s = np.sqrt(np.einsum("ij,ij->i", diff, diff)).tolist()
        self.distance_computations += m
        visited: list[bytearray] = []
        candidates: list[list[tuple[float, int]]] = []
        # ``best`` as an ascending sorted list keyed ``(d, -node)``:
        # ``insort``/``pop()`` are C calls, and popping the tail drops
        # (max distance, min node) — the element a max-heap keyed
        # ``(-d, node)`` evicts, ties included.
        best: list[list[tuple[float, int]]] = []
        for qi in range(m):
            d0 = d0s[qi]
            seen = bytearray(n)
            seen[start] = 1
            visited.append(seen)
            candidates.append([(d0, start)])
            best.append([(d0, -start)])
        heappush, heappop = heapq.heappush, heapq.heappop
        data = self._data
        active = list(range(m))
        while active:
            # one frontier expansion per still-active query; neighbor
            # filtering stays in pure Python (tiny lists, set lookups)
            expansions: list[tuple[list, list, list[int]]] = []
            flat_ids: list[int] = []
            flat_qi: list[int] = []
            still_active: list[int] = []
            for qi in active:
                cand, top = candidates[qi], best[qi]
                seen = visited[qi]
                while cand:
                    dist, node = heappop(cand)
                    if dist > top[-1][0] and len(top) >= ef:
                        cand.clear()
                        break
                    fresh = []
                    for v in lists[node]:
                        if not seen[v]:
                            seen[v] = 1
                            fresh.append(v)
                    if not fresh:
                        continue
                    expansions.append((cand, top, fresh))
                    flat_ids.extend(fresh)
                    flat_qi.extend([qi] * len(fresh))
                    still_active.append(qi)
                    break
            active = still_active
            if not flat_ids:
                break
            # score every query's frontier with one gather + one einsum
            ids = np.array(flat_ids, dtype=np.intp)
            diff = data[ids] - queries[np.array(flat_qi, dtype=np.intp)]
            dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            self.distance_computations += ids.size
            dist_list = dists.tolist()
            offset = 0
            for cand, top, fresh in expansions:
                size = len(fresh)
                for neighbor, d in zip(fresh,
                                       dist_list[offset:offset + size]):
                    if len(top) < ef or d < top[-1][0]:
                        heappush(cand, (d, neighbor))
                        insort(top, (d, -neighbor))
                        if len(top) > ef:
                            top.pop()
                offset += size
        results: list[list[SearchResult]] = []
        for top in best:
            hits = sorted((d, -negnode) for d, negnode in top)
            results.append([SearchResult(node, d) for d, node in hits[:k]])
        return results

    # ------------------------------------------------------------------
    # introspection (used by tests and benchmarks)
    # ------------------------------------------------------------------
    def n_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.neighbors)

    def average_degree(self) -> float:
        if not self.neighbors:
            return 0.0
        return self.n_edges() / len(self.neighbors)

    def routing_hops(self, query: np.ndarray) -> int:
        """Number of greedy hops from the entry point to a local minimum.

        This is the quantity whose scaling the paper bounds by
        O(n^(1/m) (ln n)^2) for tau-MG.
        """
        assert self._data is not None
        node = self.entry_point
        d = float(np.linalg.norm(self._data[node] - query))
        hops = 0
        while True:
            improved = False
            for neighbor in self.neighbors[node]:
                dn = float(np.linalg.norm(self._data[neighbor] - query))
                if dn < d:
                    node, d = neighbor, dn
                    improved = True
                    break
            if not improved:
                return hops
            hops += 1
