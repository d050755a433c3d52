"""Independent scalar references for the E6 baseline indexes.

The scalar bodies the HNSW and VP-tree classes used to carry, one
distance evaluation per visited neighbour, on
:class:`tests.ann_oracle.ScalarOracle` (where the served indexes'
oracles live).  ``HNSWOracle`` can also grow its own graph, which is
what the built adjacency of ``HNSWIndex`` is compared against.
"""

import heapq
import math
import random
import sys
from pathlib import Path

import numpy as np

from ann_baselines import HNSWIndex, VPTreeIndex

# the scalar base class and the digest live with the served indexes'
# oracles under the repository's tests/ package
sys.path.insert(0, str(Path(__file__).resolve().parents[3]))
from tests.ann_oracle import ScalarOracle, digest  # noqa: E402


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
    """The scalar oracle reading ``index``'s current structure."""
    if isinstance(index, HNSWIndex):
        return HNSWOracle(data, index.m, index.ef_construction,
                          index.ef_search, index.seed, index.layers,
                          index.entry_point, index.max_level, deleted)
    if isinstance(index, VPTreeIndex):
        return VPTreeOracle(data, index._root, deleted)
    raise TypeError(f"no oracle for {type(index).__name__}")


def adjacency_digest(index):
    """Digest of an HNSW's built layers (golden at the parent)."""
    return digest({
        "layers": [sorted(layer.items()) for layer in index.layers],
        "entry": index.entry_point, "max_level": index.max_level})
