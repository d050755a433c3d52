"""Searched differential: the E6 baselines vs their scalar oracles.

The served indexes' differential is ``tests/test_ann_oracle.py``.  The
property below drives
an index through a random build + insert/delete/compact script over
tie-heavy data and requires, at every step, that

* ``search`` returns the oracle's ids and float bits and counts the
  oracle's ``distance_computations``,
* ``search(q, k) == search_batch(q[None], k)[0]`` and a multi-row
  batch equals its rows searched alone, and
* for HNSW, the layers the index *built* equal the ones the scalar
  oracle builds.

The golden digest at the bottom pins HNSW's built adjacency for one
fixed seed to the commit that still carried the scalar, frontier and
lockstep bodies side by side.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ann_baselines import HNSWIndex, VPTreeIndex

from .ann_oracle import HNSWOracle, adjacency_digest, oracle_for

INDEXES = {
    "hnsw": lambda: HNSWIndex(m=3, ef_construction=6, ef_search=6, seed=3),
    "vptree": lambda: VPTreeIndex(seed=3),
}


class Shadow:
    """The test's model of an index: its rows, its tombstones, and —
    for HNSW — layers grown by the oracle alone."""

    def __init__(self, index, data):
        self.index = index
        self.rebuild(data)

    def rebuild(self, data):
        index = self.index
        self.data = np.array(data, dtype=np.float64)
        self.deleted = set()
        self.hnsw = None
        if isinstance(index, HNSWIndex):
            self.hnsw = HNSWOracle(self.data, index.m, index.ef_construction,
                                   index.ef_search, index.seed).build()

    def insert(self, vector):
        if self.data.shape[0] == 0:  # emptied by compact: a fresh build
            self.rebuild(vector[None, :])
            return
        self.data = np.vstack([self.data, vector[None, :]])
        if self.hnsw is not None:
            self.hnsw.insert(vector)

    def live_ids(self):
        return [i for i in range(self.data.shape[0])
                if i not in self.deleted]

    def compact(self):
        self.rebuild(self.data[self.live_ids()])

    def assert_same_adjacency(self):
        index = self.index
        if self.hnsw is not None:
            assert (index.layers, index.entry_point, index.max_level) == (
                self.hnsw.layers, self.hnsw.entry_point, self.hnsw.max_level)

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
    if name == "vptree":  # rebuild-only: no incremental insert
        script = [step for step in script if step != "insert"]

    for step in [None] + script:
        if step in ("delete", "compact") and not shadow.live_ids():
            if name == "vptree":
                break
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
# built layers == the parent commit's (computed there, checked in)
# ----------------------------------------------------------------------
GOLDEN = {
    # name: (factory, digest after build, digest after 12 inserts)
    "hnsw": (
        lambda: HNSWIndex(m=6, ef_construction=24, ef_search=16, seed=5),
        "ed6a2fee03a6874e36aebe81f64e0fd98be4074c63ad4de995e5562138aeeab3",
        "6764609324235bbf39a20eff432dabc763c4aad8615bb8461477ae18e123e3e1"),
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
