"""Tests for the E6 baseline indexes (HNSW, VP-tree) and the harness.

The served indexes' tests are ``tests/test_ann.py``.
"""

import numpy as np
import pytest

from ann_baselines import (
    HNSWIndex,
    VPTreeIndex,
    evaluate_index,
    ground_truth,
    recall_at_k,
)
from repro.ann import BruteForceIndex
from repro.errors import IndexError_


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    return rng.normal(size=(600, 12))


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(43)
    return rng.normal(size=(25, 12))


@pytest.fixture(scope="module")
def built(data):
    """One default-parameter build of ``data`` per index class.

    Built on first use and shared by every read-only test of the
    module; tests that mutate an index or need other parameters build
    their own.
    """
    cache = {}

    def get(index_cls):
        if index_cls not in cache:
            index = (index_cls(seed=1) if index_cls is HNSWIndex
                     else index_cls())
            cache[index_cls] = index.build(data)
        return cache[index_cls]

    return get


class TestHNSW:
    def test_high_recall(self, data, queries, built):
        index = built(HNSWIndex)
        truth = ground_truth(data, queries, 10)
        result = evaluate_index(index, data, queries, k=10, truth=truth)
        assert result.recall > 0.85

    def test_deterministic_per_seed(self, data, built):
        a = built(HNSWIndex)
        b = HNSWIndex(seed=a.seed).build(data)
        assert a.layers == b.layers
        q = np.zeros(12)
        assert a.search(q, 5) == b.search(q, 5)

    def test_bad_params(self):
        with pytest.raises(IndexError_):
            HNSWIndex(m=0)

    def test_degree_caps_respected(self, built):
        index = built(HNSWIndex)
        for layer_no, layer in enumerate(index.layers):
            cap = index.m0 if layer_no == 0 else index.m
            for node, neighbors in layer.items():
                assert len(neighbors) <= cap, (layer_no, node)

    def test_layer_sizes_shrink(self, data, built):
        sizes = [len(layer) for layer in built(HNSWIndex).layers]
        assert sizes[0] == len(data)
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


class TestVPTree:
    def test_exact_agreement_with_brute_force(self, queries, built):
        vp, bf = built(VPTreeIndex), built(BruteForceIndex)
        for q in queries:
            assert vp.search(q, 5) == bf.search(q, 5)

    def test_prunes_in_low_dimension(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(2000, 2))
        vp = VPTreeIndex().build(data)
        vp.reset_counters()
        for q in rng.normal(size=(20, 2)):
            vp.search(q, 1)
        assert vp.distance_computations / 20 < len(data) / 2

    def test_single_point(self):
        vp = VPTreeIndex().build(np.array([[1.0, 1.0]]))
        assert vp.search(np.zeros(2), 1)[0].vector_id == 0


class TestEvaluation:
    def test_recall_at_k(self):
        assert recall_at_k([1, 2, 3], [1, 2, 4]) == pytest.approx(2 / 3)
        assert recall_at_k([], []) == 1.0

    def test_brute_force_perfect(self, data, queries, built):
        index = built(BruteForceIndex)
        result = evaluate_index(index, data, queries, k=5)
        assert result.recall == 1.0
        assert result.epsilon_satisfaction == 1.0

    def test_result_row_renders(self, data, queries, built):
        index = built(BruteForceIndex)
        result = evaluate_index(index, data, queries[:3], k=5, name="bf")
        assert "bf" in result.row()
        assert "recall" in result.row()
