"""``search_batch`` vs the scalar oracle, for the HNSW baseline.

As in ``tests/test_ann_batch.py`` for the served indexes, the one
search body must return the same hits (ids, float bits, order) and
count the same ``distance_computations`` as the oracle searching one
query at a time, and a lone ``search`` must be that body on a one-row
matrix.
"""

import numpy as np
import pytest

from ann_baselines import HNSWIndex

from .ann_oracle import oracle_for

INDEX_CLASSES = [HNSWIndex]


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
    """One build per (index class, dataset), shared by the module.

    Every test here only searches, so none needs a private build.
    """
    datasets = {"data": data, "tied": tied_data}
    cache = {}

    def get(index_cls, dataset="data"):
        key = (index_cls, dataset)
        if key not in cache:
            index = index_cls(seed=0)
            cache[key] = index.build(datasets[dataset])
        return cache[key]

    return get


def _oracle_reference(index, data, queries, k):
    """Per-query oracle hits and the oracle's total counted work."""
    oracle = oracle_for(index, data)
    return [oracle.search(q, k) for q in queries], \
        oracle.distance_computations


@pytest.mark.parametrize("index_cls", INDEX_CLASSES)
@pytest.mark.parametrize("k", [1, 5, 32])
def test_batched_bit_identical_to_scalar(data, queries, built, index_cls, k):
    index = built(index_cls)
    want, __ = _oracle_reference(index, data, queries, k)
    got = index.search_batch(queries, k=k)
    assert got == want  # tuples: ids AND float distances
    assert [index.search(q, k=k) for q in queries] == got


@pytest.mark.parametrize("index_cls", INDEX_CLASSES)
def test_distance_computation_parity(data, queries, built, index_cls):
    """Batched, lone and oracle searches all count the same work."""
    index = built(index_cls)
    __, oracle_work = _oracle_reference(index, data, queries, 8)

    base = index.distance_computations
    index.search_batch(queries, k=8)
    batched_work = index.distance_computations - base

    base = index.distance_computations
    for q in queries:
        index.search(q, k=8)
    lone_work = index.distance_computations - base
    assert batched_work == lone_work == oracle_work


@pytest.mark.parametrize("index_cls", INDEX_CLASSES)
def test_batched_identical_under_ties(tied_data, built, index_cls):
    """Tie-heavy data: tie-breaking must match the oracle exactly."""
    index = built(index_cls, "tied")
    rng = np.random.default_rng(12)
    queries = tied_data[rng.integers(0, len(tied_data), size=12)]
    queries = queries + rng.normal(scale=1e-9, size=queries.shape)
    want, __ = _oracle_reference(index, tied_data, queries, 15)
    assert index.search_batch(queries, k=15) == want


@pytest.mark.parametrize("index_cls", INDEX_CLASSES)
def test_pairs_unwrap_search_batch(queries, built, index_cls):
    """A hit *is* a ``(vector_id, distance)`` pair."""
    hits = built(index_cls).search_batch(queries, k=6)
    pairs = [[(vector_id, distance) for vector_id, distance in row]
             for row in hits]
    assert pairs == [[(h.vector_id, h.distance) for h in row]
                     for row in hits] == hits
