"""Incremental maintenance of the E6 baselines: insert, delete, compact.

The served indexes' cases are ``tests/test_ann_incremental.py``.  The
parity property at the bottom: after any interleaving of insert/delete/compact, a final
``compact()`` leaves the index bit-compatible with a fresh ``build()``
over the surviving vectors — same internal structure, same search hits
and distances, same ``distance_computations``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ann_baselines import HNSWIndex, VPTreeIndex
from repro.ann import BruteForceIndex
from repro.errors import IndexError_

MUTABLE = [
    ("hnsw", lambda: HNSWIndex(m=4, ef_construction=8, ef_search=8,
                               seed=3)),
]


def make_index(name):
    return dict(MUTABLE)[name]()


def grid_vectors(rng, n, dim=4):
    return rng.integers(-4, 5, size=(n, dim)).astype(np.float64)


# ----------------------------------------------------------------------
# deterministic unit tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", [n for n, __ in MUTABLE])
def test_insert_into_unbuilt_index_builds_one_row(name):
    index = make_index(name)
    assert index.insert(np.array([1.0, 2.0, 3.0])) == 0
    assert index.size == 1 and index.live_size == 1
    hits = index.search(np.array([1.0, 2.0, 3.0]), k=1)
    assert hits[0].vector_id == 0 and hits[0].distance == 0.0


@pytest.mark.parametrize("name", [n for n, __ in MUTABLE])
def test_inserted_vectors_are_searchable(name):
    rng = np.random.default_rng(0)
    index = make_index(name)
    index.build(grid_vectors(rng, 10))
    target = np.array([40.0, 40.0, 40.0, 40.0])
    new_id = index.insert(target)
    assert new_id == 10
    hits = index.search(target, k=1)
    assert hits[0].vector_id == new_id and hits[0].distance == 0.0


@pytest.mark.parametrize("name", [n for n, __ in MUTABLE])
def test_deleted_vectors_vanish_from_search(name):
    rng = np.random.default_rng(1)
    data = grid_vectors(rng, 12)
    index = make_index(name)
    index.build(data)
    exact = BruteForceIndex().build(data)
    query = np.zeros(4)
    victim = exact.search(query, k=1)[0].vector_id
    index.delete(victim)
    assert index.live_size == 11
    hits = index.search(query, k=12)
    assert victim not in [h.vector_id for h in hits]
    assert len(hits) == 11  # trimmed to live_size, not k


@pytest.mark.parametrize("name", [n for n, __ in MUTABLE])
def test_compacting_away_everything_resets_to_unbuilt(name):
    index = make_index(name)
    index.build(np.eye(3))
    for vid in range(3):
        index.delete(vid)
    assert index.live_size == 0
    assert index.compact() == {}
    assert index.size == 0
    with pytest.raises(IndexError_):
        index.search(np.zeros(3), k=1)
    # and the empty index accepts new inserts
    assert index.insert(np.array([1.0, 0.0, 0.0])) == 0


def test_vptree_rejects_incremental_insert():
    index = VPTreeIndex(seed=0).build(np.eye(4))
    with pytest.raises(IndexError_):
        index.insert(np.ones(4))
    # deletes still work (tombstones live in the base class)
    index.delete(0)
    hits = index.search(np.array([1.0, 0, 0, 0]), k=4)
    assert 0 not in [h.vector_id for h in hits]


# ----------------------------------------------------------------------
# the parity property
# ----------------------------------------------------------------------
def structure_of(index):
    """The index's internal structure, normalized for comparison."""
    if isinstance(index, HNSWIndex):
        return {"layers": index.layers, "entry": index.entry_point,
                "max_level": index.max_level}
    return {}


def run_script(index, script, rng):
    """Interleave inserts/deletes/compacts; returns live vectors."""
    vectors = []  # by current id; None = deleted
    for step in script:
        if step == "insert" or not any(v is not None for v in vectors):
            vec = grid_vectors(rng, 1)[0]
            vid = index.insert(vec)
            assert vid == len(vectors)
            vectors.append(vec)
        elif step == "delete":
            live = [i for i, v in enumerate(vectors) if v is not None]
            victim = live[int(rng.integers(len(live)))]
            index.delete(victim)
            vectors[victim] = None
        else:  # compact
            id_map = index.compact()
            survivors = [v for v in vectors if v is not None]
            assert sorted(id_map.values()) == list(range(len(survivors)))
            vectors = survivors
    return [v for v in vectors if v is not None]


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from([n for n, __ in MUTABLE]),
    script=st.lists(
        st.sampled_from(["insert", "insert", "delete", "compact"]),
        min_size=1, max_size=40),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_incremental_then_compact_matches_fresh_build(name, script, seed):
    rng = np.random.default_rng(seed)
    index = make_index(name)
    live = run_script(index, script, rng)
    index.compact()
    if not live:
        assert index.size == 0
        return

    fresh = make_index(name)
    fresh.build(np.vstack(live))

    assert np.array_equal(index._data, fresh._data)
    assert structure_of(index) == structure_of(fresh)

    queries = grid_vectors(np.random.default_rng(seed + 1), 3)
    index.reset_counters()
    fresh.reset_counters()
    for query in queries:
        got = [(h.vector_id, h.distance)
               for h in index.search(query, k=3)]
        want = [(h.vector_id, h.distance)
                for h in fresh.search(query, k=3)]
        assert got == want
    assert index.distance_computations == fresh.distance_computations
