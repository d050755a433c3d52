"""``search_batch`` vs the scalar oracles.

Every index class owns one search body, so the reference here is
``tests/ann_oracle.py``: for each class the body must return the same
hits (ids, float bits, order) and count the same
``distance_computations`` as the oracle searching one query at a time,
and a lone ``search`` must be that body on a one-row matrix.
"""

import numpy as np
import pytest

from repro.ann import BruteForceIndex, TauMGIndex, stable_topk
from repro.errors import IndexError_

from .ann_oracle import oracle_for

#: Default-parameter index per name; the MRNG is tau-MG at tau = 0.
FACTORIES = {
    "BruteForceIndex": BruteForceIndex,
    "MRNGIndex": lambda: TauMGIndex(tau=0.0),
    "TauMGIndex": TauMGIndex,
}


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    return rng.normal(size=(300, 16))


@pytest.fixture(scope="module")
def tied_data():
    """Every point duplicated 10x: distance ties everywhere."""
    rng = np.random.default_rng(11)
    return np.repeat(rng.normal(size=(40, 8)), 10, axis=0)


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(8)
    return rng.normal(size=(24, 16))


@pytest.fixture(scope="module")
def built(data, tied_data):
    """One build per (index name, dataset), shared by the module.

    Every test here only searches, so none needs a private build.
    """
    datasets = {"data": data, "tied": tied_data}
    cache = {}

    def get(name, dataset="data"):
        key = (name, dataset)
        if key not in cache:
            cache[key] = FACTORIES[name]().build(datasets[dataset])
        return cache[key]

    return get


def _oracle_reference(index, data, queries, k):
    """Per-query oracle hits and the oracle's total counted work."""
    oracle = oracle_for(index, data)
    return [oracle.search(q, k) for q in queries], \
        oracle.distance_computations


@pytest.mark.parametrize("name", list(FACTORIES))
@pytest.mark.parametrize("k", [1, 5, 32])
def test_batched_bit_identical_to_scalar(data, queries, built, name, k):
    index = built(name)
    want, __ = _oracle_reference(index, data, queries, k)
    got = index.search_batch(queries, k=k)
    assert got == want  # tuples: ids AND float distances
    assert [index.search(q, k=k) for q in queries] == got


@pytest.mark.parametrize("name", list(FACTORIES))
def test_distance_computation_parity(data, queries, built, name):
    """Batched, lone and oracle searches all count the same work."""
    index = built(name)
    __, oracle_work = _oracle_reference(index, data, queries, 8)

    base = index.distance_computations
    index.search_batch(queries, k=8)
    batched_work = index.distance_computations - base

    base = index.distance_computations
    for q in queries:
        index.search(q, k=8)
    lone_work = index.distance_computations - base
    assert batched_work == lone_work == oracle_work


@pytest.mark.parametrize("name", list(FACTORIES))
def test_batched_identical_under_ties(tied_data, built, name):
    """Tie-heavy data: tie-breaking must match the oracle exactly."""
    index = built(name, "tied")
    rng = np.random.default_rng(12)
    queries = tied_data[rng.integers(0, len(tied_data), size=12)]
    queries = queries + rng.normal(scale=1e-9, size=queries.shape)
    want, __ = _oracle_reference(index, tied_data, queries, 15)
    assert index.search_batch(queries, k=15) == want


@pytest.mark.parametrize("name", list(FACTORIES))
def test_pairs_unwrap_search_batch(queries, built, name):
    """A hit *is* a ``(vector_id, distance)`` pair."""
    hits = built(name).search_batch(queries, k=6)
    pairs = [[(vector_id, distance) for vector_id, distance in row]
             for row in hits]
    assert pairs == [[(h.vector_id, h.distance) for h in row]
                     for row in hits] == hits


def test_single_query_batch_matches_search(data, built):
    index = built("BruteForceIndex")
    query = data[3] + 0.01
    assert index.search_batch(query[None, :], k=4) == [
        index.search(query, k=4)]


def test_k_capped_at_n_in_batch():
    index = BruteForceIndex().build(np.eye(3))
    rows = index.search_batch(np.zeros((2, 3)), k=10)
    assert all(len(row) == 3 for row in rows)


class TestStableTopK:
    def test_matches_stable_argsort(self):
        rng = np.random.default_rng(5)
        for trial in range(50):
            values = rng.integers(0, 6, size=rng.integers(1, 80))
            values = values.astype(np.float64)
            k = int(rng.integers(1, len(values) + 1))
            want = np.argsort(values, kind="stable")[:k]
            got = stable_topk(values, k)
            np.testing.assert_array_equal(got, want)

    def test_all_tied(self):
        values = np.zeros(10)
        np.testing.assert_array_equal(stable_topk(values, 4),
                                      np.arange(4))

    def test_k_at_least_n(self):
        values = np.array([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(stable_topk(values, 5),
                                      np.array([1, 2, 0]))


class TestBatchValidation:
    def test_before_build(self):
        with pytest.raises(IndexError_):
            BruteForceIndex().search_batch(np.zeros((2, 3)))

    def test_bad_shape(self, built):
        index = built("BruteForceIndex")
        with pytest.raises(IndexError_):
            index.search_batch(np.zeros(16))  # 1-D, not (m, d)
        with pytest.raises(IndexError_):
            index.search_batch(np.zeros((2, 5)))  # wrong dim

    def test_bad_k(self, built):
        index = built("BruteForceIndex")
        with pytest.raises(IndexError_):
            index.search_batch(np.zeros((2, 16)), k=0)
