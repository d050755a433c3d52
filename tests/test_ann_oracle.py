"""Searched differential: the served ANN indexes vs ``tests/ann_oracle.py``.

Each index class owns one search body; the scalar bodies it replaced
live on as oracles under ``tests/``.  The property below drives an
index through a random build + insert/delete/compact script over
tie-heavy data and requires, at every step, that

* ``search`` returns the oracle's ids and float bits and counts the
  oracle's ``distance_computations``,
* ``search(q, k) == search_batch(q[None], k)[0]`` and a multi-row
  batch equals its rows searched alone, and
* for tau-MG (and the MRNG, its tau = 0 case), the adjacency the index
  *built* equals the one the oracle builds (the occlusion rule restated
  edge by edge).

The golden digests at the bottom pin the built adjacency of one fixed
seed per graph to the commit that still carried the scalar, frontier
and lockstep bodies side by side.  The E6 baselines (HNSW, VP-tree)
run the same differential in ``benchmarks/ann_baselines/tests``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann import BruteForceIndex, TauMGIndex

from .ann_oracle import (
    adjacency_digest,
    oracle_for,
    proximity_graph_build,
    proximity_graph_insert,
)

INDEXES = {
    "brute": lambda: BruteForceIndex(),
    "mrng": lambda: TauMGIndex(tau=0.0, max_degree=4, candidate_pool=8,
                               ef_search=6),
    "taumg": lambda: TauMGIndex(tau=0.1, max_degree=4, candidate_pool=8,
                                ef_search=6),
}


class Shadow:
    """The test's model of an index: its rows, its tombstones, and —
    for tau-MG — an adjacency grown by the oracle alone."""

    def __init__(self, index, data):
        self.index = index
        self.rebuild(data)

    def rebuild(self, data):
        index = self.index
        self.data = np.array(data, dtype=np.float64)
        self.deleted = set()
        self.graph = None
        if isinstance(index, TauMGIndex):
            self.graph = proximity_graph_build(
                self.data, index.tau, index.max_degree,
                index.candidate_pool)

    def insert(self, vector):
        if self.data.shape[0] == 0:  # emptied by compact: a fresh build
            self.rebuild(vector[None, :])
            return
        self.data = np.vstack([self.data, vector[None, :]])
        index = self.index
        if self.graph is not None:
            proximity_graph_insert(self.data, self.graph[0], index.tau,
                                   index.max_degree, index.candidate_pool)

    def live_ids(self):
        return [i for i in range(self.data.shape[0])
                if i not in self.deleted]

    def compact(self):
        self.rebuild(self.data[self.live_ids()])

    def assert_same_adjacency(self):
        index = self.index
        if self.graph is not None:
            assert (index.neighbors, index.entry_point) == self.graph

    def assert_same_searches(self, queries, k):
        index = self.index
        oracle = oracle_for(index, self.data, self.deleted)
        index.reset_counters()
        alone = [index.search(q, k) for q in queries]
        assert alone == [oracle.search(q, k) for q in queries]
        assert index.distance_computations == oracle.distance_computations
        for q, hits in zip(queries, alone):
            assert index.search_batch(q[None, :], k)[0] == hits
        index.reset_counters()
        assert index.search_batch(queries, k) == alone
        assert index.distance_computations == oracle.distance_computations


def tie_heavy(rng, n, dim, duplicates, grid):
    """Rows with repeats; on the small-integer grid distances tie too."""
    rows = (rng.integers(-3, 4, size=(n, dim)).astype(np.float64)
            if grid else rng.normal(size=(n, dim)))
    repeats = rng.integers(0, n, size=duplicates)
    return np.vstack([rows, rows[repeats]])[rng.permutation(n + duplicates)]


@pytest.mark.parametrize("name", list(INDEXES))
@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 24), dim=st.integers(1, 5), k=st.integers(1, 12),
    duplicates=st.integers(0, 12), grid=st.booleans(),
    script=st.lists(st.sampled_from(["insert", "insert", "delete",
                                     "compact"]), max_size=10),
    seed=st.integers(0, 2**16),
)
def test_index_matches_oracle(name, n, dim, k, duplicates, grid, script,
                              seed):
    rng = np.random.default_rng(seed)
    index = INDEXES[name]()
    shadow = Shadow(index, tie_heavy(rng, n, dim, duplicates, grid))
    index.build(shadow.data)
    # grid queries tie exactly; the off-grid one breaks every tie
    queries = np.vstack([rng.integers(-3, 4, size=(3, dim)),
                         rng.normal(size=(1, dim))]).astype(np.float64)

    for step in [None] + script:
        if step in ("delete", "compact") and not shadow.live_ids():
            step = "insert"  # nothing left to delete or keep
        if step == "insert":
            vector = rng.integers(-3, 4, size=dim).astype(np.float64)
            assert index.insert(vector) == shadow.data.shape[0]
            shadow.insert(vector)
        elif step == "delete":
            live = shadow.live_ids()
            victim = live[int(rng.integers(len(live)))]
            index.delete(victim)
            shadow.deleted.add(victim)
        elif step == "compact":
            index.compact()
            shadow.compact()
        assert index.size == shadow.data.shape[0]
        shadow.assert_same_adjacency()
        shadow.assert_same_searches(queries, k)


# ----------------------------------------------------------------------
# built adjacency == the parent commit's (computed there, checked in)
# ----------------------------------------------------------------------
GOLDEN = {
    # name: (factory, digest after build, digest after 12 inserts)
    "taumg": (
        lambda: TauMGIndex(tau=0.05, max_degree=8, candidate_pool=24),
        "9f0441c18f9168b1b6e08e07c1a749219204edacc21403a7be8153d7516ebc6a",
        "e5c99b7a408c7ba789174808d444cfa8f272b70f6667e03e782c06af263c740e"),
    "mrng": (
        lambda: TauMGIndex(tau=0.0, max_degree=8, candidate_pool=24),
        "612dfe36a18113fc0d12674d9a07e06d7f815d8c07b17efa5c07c7b2ba5d5b4d",
        "92549cb64e88a6f16a22aef712c09e55d3ebfffc0f3f51ebe6223eb2a7ff3fa9"),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_built_adjacency_matches_parent_golden(name):
    make, built, grown = GOLDEN[name]
    rng = np.random.default_rng(2024)
    data = rng.normal(size=(150, 8))
    extra = rng.normal(size=(12, 8))
    index = make().build(data)
    assert adjacency_digest(index) == built
    for vector in extra:
        index.insert(vector)
    assert adjacency_digest(index) == grown
