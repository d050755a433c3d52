"""Incremental ANN maintenance: insert, tombstone delete, compaction.

The parity property at the bottom is the acceptance gate for the store's
index guarantee: after any interleaving of insert/delete/compact, a
final ``compact()`` leaves the index bit-compatible with a fresh
``build()`` over the surviving vectors — same internal structure, same
search hits and distances, same ``distance_computations``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann import BruteForceIndex, TauMGIndex
from repro.errors import IndexError_

MUTABLE = [
    ("brute", lambda: BruteForceIndex()),
    ("mrng", lambda: TauMGIndex(tau=0.0, max_degree=4, candidate_pool=8,
                                ef_search=8)),
    ("taumg", lambda: TauMGIndex(tau=0.1, max_degree=4,
                                 candidate_pool=8, ef_search=8)),
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


def test_delete_validation():
    index = BruteForceIndex()
    with pytest.raises(IndexError_):
        index.delete(0)  # not built
    index.build(np.eye(3))
    with pytest.raises(IndexError_):
        index.delete(7)
    index.delete(1)
    with pytest.raises(IndexError_):
        index.delete(1)  # double delete


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


def test_compact_id_map_is_order_preserving():
    index = BruteForceIndex().build(np.arange(10.0)[:, None])
    index.delete(2)
    index.delete(7)
    id_map = index.compact()
    assert id_map == {0: 0, 1: 1, 3: 2, 4: 3, 5: 4, 6: 5, 8: 6, 9: 7}
    assert index.n_tombstones == 0


def test_search_without_tombstones_is_untouched():
    # golden-trace safety: the tombstone filter must not change the
    # no-tombstone code path
    rng = np.random.default_rng(2)
    data = grid_vectors(rng, 30)
    query = np.zeros(4)
    plain = TauMGIndex(max_degree=4, candidate_pool=8,
                       ef_search=8).build(data)
    baseline = [(h.vector_id, h.distance)
                for h in plain.search(query, k=5)]
    count = plain.distance_computations
    again = TauMGIndex(max_degree=4, candidate_pool=8,
                       ef_search=8).build(data)
    assert [(h.vector_id, h.distance)
            for h in again.search(query, k=5)] == baseline
    assert again.distance_computations == count


# ----------------------------------------------------------------------
# the parity property
# ----------------------------------------------------------------------
def structure_of(index):
    """The index's internal structure, normalized for comparison."""
    if hasattr(index, "neighbors"):
        return {"neighbors": index.neighbors,
                "entry": index.entry_point}
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
