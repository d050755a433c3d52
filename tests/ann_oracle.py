"""Independent scalar references for the ANN indexes.

Every index class under ``src/repro/ann`` owns one search body, so
comparing ``search`` with ``search_batch`` compares a path with itself.
The oracles here are the scalar bodies those classes used to carry,
moved out of ``src/`` verbatim: pure Python over an index's public
adjacency (``neighbors`` / ``layers`` / ``entry_point`` / ``max_level``
/ ``ef_search``), one distance evaluation per visited neighbour, no
frontier batching, no lockstep.  The differential suites require ids,
float bits and ``distance_computations`` to agree with them, and — for
the graph indexes — the *built* adjacency to agree with an
oracle-driven build.  Test code only: nothing under ``src/`` imports it.
"""

import hashlib
import heapq
import json
import math
import random
from collections import deque

import numpy as np

from repro.ann import (
    BruteForceIndex,
    HNSWIndex,
    ProximityGraphIndex,
    VPTreeIndex,
)


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
    """Best-first beam search, as ``ProximityGraphIndex`` ran it scalar."""

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


class HNSWOracle(ScalarOracle):
    """Scalar HNSW: search over given layers, or its own build.

    Constructed over an index's adjacency it only searches; constructed
    with ``layers=None`` it grows its own graph through :meth:`build` /
    :meth:`insert` with the scalar layer search, which is what the
    built adjacency of ``HNSWIndex`` is compared against.
    """

    def __init__(self, data, m, ef_construction, ef_search, seed,
                 layers=None, entry_point=0, max_level=-1, deleted=()):
        super().__init__(data, deleted)
        self.m = m
        self.m0 = 2 * m
        self.ef_construction = ef_construction
        self.ef_search = ef_search
        self.seed = seed
        self._level_mult = 1.0 / math.log(m + 1)
        self.layers = [] if layers is None else layers
        self.entry_point = entry_point
        self.max_level = max_level

    # -- construction ---------------------------------------------------
    def build(self):
        rng = random.Random(self.seed)
        self.layers = []
        self.max_level = -1
        for u in range(self.data.shape[0]):
            self._insert(self.data, u, rng)
        return self

    def insert(self, vector):
        vector = np.asarray(vector, dtype=np.float64).ravel()
        self.data = np.vstack([self.data, vector[None, :]])
        new_id = self.data.shape[0] - 1
        self._insert(self.data, new_id,
                     random.Random(f"{self.seed}:{new_id}"))
        return new_id

    def _random_level(self, rng):
        return int(-math.log(max(rng.random(), 1e-12)) * self._level_mult)

    def _insert(self, data, u, rng):
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
        for l in range(self.max_level, level, -1):
            entry = self._greedy_step(query, entry, l)
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

    def _select_neighbors(self, data, query, candidates, cap):
        chosen = []
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
        if len(chosen) < cap:
            chosen_ids = {c for __, c in chosen}
            for dist, c in sorted(candidates):
                if len(chosen) >= cap:
                    break
                if c not in chosen_ids:
                    chosen.append((dist, c))
                    chosen_ids.add(c)
        return chosen

    def _shrink(self, data, node, layer, cap):
        nbrs = self.layers[layer][node]
        scored = [(float(np.linalg.norm(data[v] - data[node])), v)
                  for v in nbrs]
        chosen = self._select_neighbors(data, data[node], scored, cap)
        self.layers[layer][node] = [v for __, v in chosen]

    # -- search ---------------------------------------------------------
    def _greedy_step(self, query, entry, layer):
        current = entry
        d = self._distance(query, current)
        improved = True
        while improved:
            improved = False
            for neighbor in self.layers[layer].get(current, []):
                dn = self._distance(query, neighbor)
                if dn < d:
                    current, d = neighbor, dn
                    improved = True
        return current

    def _search_layer(self, query, entry, layer, ef):
        d0 = self._distance(query, entry)
        visited = {entry}
        candidates = [(d0, entry)]
        best = [(-d0, entry)]
        while candidates:
            dist, node = heapq.heappop(candidates)
            if dist > -best[0][0] and len(best) >= ef:
                break
            for neighbor in self.layers[layer].get(node, []):
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                d = self._distance(query, neighbor)
                if len(best) < ef or d < -best[0][0]:
                    heapq.heappush(candidates, (d, neighbor))
                    heapq.heappush(best, (-d, neighbor))
                    if len(best) > ef:
                        heapq.heappop(best)
        return sorted((-negd, node) for negd, node in best)

    def _search(self, query, k):
        entry = self.entry_point
        for l in range(self.max_level, 0, -1):
            entry = self._greedy_step(query, entry, l)
        ef = max(self.ef_search, k)
        hits = self._search_layer(query, entry, 0, ef)
        return [(node, d) for d, node in hits[:k]]


class VPTreeOracle(ScalarOracle):
    """Triangle-inequality descent over a built tree's nodes."""

    def __init__(self, data, root, deleted=()):
        super().__init__(data, deleted)
        self.root = root

    def _search(self, query, k):
        best = []  # max-heap of the k best (negated distances)

        def tau():
            return -best[0][0] if len(best) == k else np.inf

        def visit(node):
            if node is None:
                return
            d = self._distance(query, node.point_id)
            if len(best) < k:
                heapq.heappush(best, (-d, node.point_id))
            elif d < -best[0][0]:
                heapq.heapreplace(best, (-d, node.point_id))
            if node.inside is None and node.outside is None:
                return
            if d <= node.radius:
                visit(node.inside)
                if d + tau() > node.radius:
                    visit(node.outside)
            else:
                visit(node.outside)
                if d - tau() <= node.radius:
                    visit(node.inside)

        visit(self.root)
        hits = sorted((-negd, pid) for negd, pid in best)
        return [(pid, d) for d, pid in hits]


def oracle_for(index, data, deleted=()):
    """The scalar oracle reading ``index``'s current adjacency."""
    if isinstance(index, BruteForceIndex):
        return BruteForceOracle(data, deleted)
    if isinstance(index, ProximityGraphIndex):
        return ProximityGraphOracle(data, index.neighbors,
                                    index.entry_point, index.ef_search,
                                    deleted)
    if isinstance(index, HNSWIndex):
        return HNSWOracle(data, index.m, index.ef_construction,
                          index.ef_search, index.seed, index.layers,
                          index.entry_point, index.max_level, deleted)
    if isinstance(index, VPTreeIndex):
        return VPTreeOracle(data, index._root, deleted)
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


def proximity_graph_build(index_cls, data, tau, max_degree, candidate_pool):
    """``(neighbors, entry_point)`` of a fresh tau-MG / MRNG build.

    Candidate pools come from the class's exact-kNN kernel (its matmul
    selection is BLAS-ordered and not restatable in Python); the
    occlusion walk, the medoid and the connectivity repair are written
    out here.
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    neighbors = [[] for __ in range(n)]
    if n == 1:
        return neighbors, 0
    knn = index_cls._exact_knn(data, min(candidate_pool, n - 1))
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
def adjacency_digest(index):
    """SHA-256 over an index's built adjacency (golden at the parent)."""
    if isinstance(index, HNSWIndex):
        shape = {"layers": [sorted(layer.items()) for layer in index.layers],
                 "entry": index.entry_point, "max_level": index.max_level}
    else:
        shape = {"neighbors": index.neighbors, "entry": index.entry_point}
    return hashlib.sha256(
        json.dumps(shape, sort_keys=True).encode("ascii")).hexdigest()
