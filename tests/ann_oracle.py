"""Independent scalar references for the ANN indexes.

Every index class under ``src/repro/ann`` owns one search body, so
comparing ``search`` with ``search_batch`` compares a path with itself.
The oracles here are the scalar bodies those classes used to carry,
moved out of ``src/`` verbatim: pure Python over an index's public
adjacency (``neighbors`` / ``entry_point`` / ``ef_search``), one
distance evaluation per visited neighbour, no frontier batching, no
lockstep.  The differential suites require ids, float bits and
``distance_computations`` to agree with them, and — for tau-MG — the
*built* adjacency to agree with an oracle-driven build.  Test code
only: nothing under ``src/`` imports it.  The E6 baselines' oracles
(HNSW, VP-tree) build on :class:`ScalarOracle` from
``benchmarks/ann_baselines/tests/ann_oracle.py``.
"""

import hashlib
import heapq
import json
from collections import deque

import numpy as np

from repro.ann import BruteForceIndex, TauMGIndex


class ScalarOracle:
    """One data matrix, one distance per call, tombstones by over-fetch.

    ``data`` and ``deleted`` come from the test's own model of the
    index, not from the index, so insert/delete bookkeeping is part of
    what the differential checks.
    """

    def __init__(self, data, deleted=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.deleted = set(deleted)
        self.distance_computations = 0

    def _distance(self, query, vector_id):
        # the canonical gather-form evaluation, one row at a time
        self.distance_computations += 1
        diff = self.data[np.array([vector_id])] - query
        return float(np.sqrt(np.einsum("ij,ij->i", diff, diff))[0])

    def search(self, query, k):
        """``(vector_id, distance)`` pairs, nearest first."""
        query = np.asarray(query, dtype=np.float64).ravel()
        n = self.data.shape[0]
        k = min(k, n)
        fetch = min(n, k + len(self.deleted))
        live = [hit for hit in self._search(query, fetch)
                if hit[0] not in self.deleted]
        return live[:min(k, n - len(self.deleted))]

    def _search(self, query, k):
        raise NotImplementedError


class BruteForceOracle(ScalarOracle):
    def _search(self, query, k):
        distances = [self._distance(query, i)
                     for i in range(self.data.shape[0])]
        order = np.argsort(np.array(distances), kind="stable")[:k]
        return [(int(i), distances[i]) for i in order]


class ProximityGraphOracle(ScalarOracle):
    """Best-first beam search, as ``TauMGIndex`` ran it scalar."""

    def __init__(self, data, neighbors, entry_point, ef_search, deleted=()):
        super().__init__(data, deleted)
        self.neighbors = neighbors
        self.entry_point = entry_point
        self.ef_search = ef_search

    def _search(self, query, k):
        ef = max(self.ef_search, k)
        return self._beam_search(query, ef)[:k]

    def _beam_search(self, query, ef):
        start = self.entry_point
        d0 = self._distance(query, start)
        visited = {start}
        # candidates: min-heap by distance; frontier of the search
        candidates = [(d0, start)]
        # best: max-heap (negated) of the ef closest found so far
        best = [(-d0, start)]
        while candidates:
            dist, node = heapq.heappop(candidates)
            if dist > -best[0][0] and len(best) >= ef:
                break
            for neighbor in self.neighbors[node]:
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                d = self._distance(query, neighbor)
                if len(best) < ef or d < -best[0][0]:
                    heapq.heappush(candidates, (d, neighbor))
                    heapq.heappush(best, (-d, neighbor))
                    if len(best) > ef:
                        heapq.heappop(best)
        hits = sorted(((-negd, node) for negd, node in best))
        return [(node, d) for d, node in hits]


def oracle_for(index, data, deleted=()):
    """The scalar oracle reading ``index``'s current adjacency."""
    if isinstance(index, BruteForceIndex):
        return BruteForceOracle(data, deleted)
    if isinstance(index, TauMGIndex):
        return ProximityGraphOracle(data, index.neighbors,
                                    index.entry_point, index.ef_search,
                                    deleted)
    raise TypeError(f"no oracle for {type(index).__name__}")


# ----------------------------------------------------------------------
# proximity-graph construction, restated edge by edge
# ----------------------------------------------------------------------
def _occluded(data, u, v, d_uv, selected, tau):
    """Def. 3: some kept ``u'`` in ball(u, d_uv) and ball(v, d_uv - 3 tau)."""
    for u_prime in selected:
        if float(np.linalg.norm(data[u] - data[u_prime])) > d_uv:
            continue
        if float(np.linalg.norm(data[u_prime] - data[v])) \
                <= d_uv - 3.0 * tau:
            return True
    return False


def _select_edges(data, u, ranked, tau, max_degree):
    """Walk ``(v, d_uv)`` nearest first, keeping what nothing occludes."""
    selected = []
    for v, d_uv in ranked:
        if _occluded(data, u, v, d_uv, selected, tau):
            continue
        selected.append(v)
        if len(selected) >= max_degree:
            break
    return selected


def _reachable(neighbors, start):
    seen = {start}
    queue = deque([start])
    while queue:
        for v in neighbors[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def proximity_graph_build(data, tau, max_degree, candidate_pool):
    """``(neighbors, entry_point)`` of a fresh tau-MG build.

    Candidate pools come from the index's exact-kNN kernel (its matmul
    selection is BLAS-ordered and not restatable in Python); the
    occlusion walk, the medoid and the connectivity repair are written
    out here.
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    neighbors = [[] for __ in range(n)]
    if n == 1:
        return neighbors, 0
    knn = TauMGIndex._exact_knn(data, min(candidate_pool, n - 1))
    for u in range(n):
        distances = np.linalg.norm(data[knn[u]] - data[u], axis=1)
        order = np.argsort(distances, kind="stable")
        ranked = [(int(knn[u][i]), float(distances[i])) for i in order]
        neighbors[u] = _select_edges(data, u, ranked, tau, max_degree)
    centroid = data.mean(axis=0)
    entry = int(np.argmin(np.linalg.norm(data - centroid, axis=1)))
    reachable = _reachable(neighbors, entry)
    while len(reachable) < n:
        # attach the unreachable node closest to any reachable node
        reach = np.array(sorted(reachable))
        best = None
        for u in sorted(set(range(n)) - reachable):
            d = np.linalg.norm(data[reach] - data[u], axis=1)
            j = int(np.argmin(d))
            if best is None or d[j] < best[0]:
                best = (float(d[j]), int(reach[j]), u)
        neighbors[best[1]].append(best[2])
        reachable |= _reachable(neighbors, best[2])
    return neighbors, entry


def proximity_graph_insert(data, neighbors, tau, max_degree,
                           candidate_pool):
    """Append the last row of ``data`` to ``neighbors`` in place."""
    new_id = data.shape[0] - 1
    diffs = data[:new_id] - data[new_id]
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    order = np.argsort(dists, kind="stable")
    ranked = [(int(i), float(dists[i]))
              for i in order[:min(candidate_pool, new_id)]]
    selected = _select_edges(data, new_id, ranked, tau, max_degree)
    neighbors.append(selected)
    open_slots = [v for v in selected if len(neighbors[v]) < max_degree]
    for v in open_slots or [int(order[0])]:
        neighbors[v].append(new_id)


# ----------------------------------------------------------------------
def digest(shape):
    """SHA-256 over a built adjacency's canonical JSON."""
    return hashlib.sha256(
        json.dumps(shape, sort_keys=True).encode("ascii")).hexdigest()


def adjacency_digest(index):
    """Digest of a tau-MG's built adjacency (golden at the parent)."""
    return digest({"neighbors": index.neighbors,
                   "entry": index.entry_point})
