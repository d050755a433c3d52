"""Tests for the ANN indexes (brute force, MRNG, tau-MG, HNSW, VP-tree)."""

import numpy as np
import pytest

from repro.ann import (
    BruteForceIndex,
    HNSWIndex,
    MRNGIndex,
    TauMGIndex,
    VPTreeIndex,
    evaluate_index,
    recall_at_k,
)
from repro.ann.evaluation import ground_truth
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


class TestBruteForce:
    def test_exact_nearest(self, data, built):
        index = built(BruteForceIndex)
        hits = index.search(data[17], k=1)
        assert hits[0].vector_id == 17
        assert hits[0].distance == pytest.approx(0.0)

    def test_sorted_by_distance(self, data, built):
        index = built(BruteForceIndex)
        hits = index.search(np.zeros(12), k=10)
        distances = [h.distance for h in hits]
        assert distances == sorted(distances)

    def test_k_capped_at_n(self):
        index = BruteForceIndex().build(np.eye(3))
        assert len(index.search(np.zeros(3), k=10)) == 3

    def test_counts_distances(self, data, built):
        index = built(BruteForceIndex)
        before = index.distance_computations
        index.search(np.zeros(12), k=1)
        assert index.distance_computations - before == len(data)


class TestValidation:
    def test_search_before_build(self):
        with pytest.raises(IndexError_):
            BruteForceIndex().search(np.zeros(3))

    def test_bad_data_shape(self):
        with pytest.raises(IndexError_):
            BruteForceIndex().build(np.zeros((0, 4)))
        with pytest.raises(IndexError_):
            BruteForceIndex().build(np.zeros(5))

    def test_bad_query_dim(self, built):
        index = built(BruteForceIndex)
        with pytest.raises(IndexError_):
            index.search(np.zeros(5))

    def test_bad_k(self, built):
        index = built(BruteForceIndex)
        with pytest.raises(IndexError_):
            index.search(np.zeros(12), k=0)

    def test_bad_tau(self):
        with pytest.raises(IndexError_):
            TauMGIndex(tau=-0.1)


class TestProximityGraphs:
    @pytest.mark.parametrize("index_cls", [MRNGIndex, TauMGIndex])
    def test_high_recall(self, data, queries, built, index_cls):
        index = built(index_cls)
        truth = ground_truth(data, queries, 10)
        result = evaluate_index(index, data, queries, k=10, truth=truth)
        assert result.recall > 0.85

    def test_tau_mg_superset_of_mrng_edges(self, data):
        """Def. 3 with tau>0 occludes *less*, so tau-MG keeps >= edges."""
        mrng = MRNGIndex(max_degree=16).build(data)
        taumg = TauMGIndex(tau=0.1, max_degree=16).build(data)
        assert taumg.n_edges() >= mrng.n_edges()

    def test_every_node_reachable(self, data, built):
        index = built(TauMGIndex)
        reachable = index._reachable_from_entry(len(data))
        assert len(reachable) == len(data)

    def test_single_point(self):
        index = TauMGIndex().build(np.array([[1.0, 2.0]]))
        hits = index.search(np.array([0.0, 0.0]), k=1)
        assert hits[0].vector_id == 0

    def test_self_query_found(self, data, built):
        index = built(TauMGIndex)
        hits = index.search(data[5], k=1)
        assert hits[0].vector_id == 5

    def test_routing_hops_bounded(self, data, queries, built):
        index = built(TauMGIndex)
        for q in queries[:5]:
            assert index.routing_hops(q) < len(data)

    def test_fewer_distances_than_brute_force(self, data, queries, built):
        index = built(TauMGIndex)
        before = index.distance_computations
        for q in queries:
            index.search(q, k=10)
        per_query = (index.distance_computations - before) / len(queries)
        assert per_query < len(data) / 2


class TestConnectivityRepair:
    def test_clustered_data_stays_reachable(self):
        # two far-apart gaussian blobs: naive occlusion graphs can
        # disconnect them; the repair must reconnect everything
        rng = np.random.default_rng(3)
        blob_a = rng.normal(loc=0.0, size=(150, 8))
        blob_b = rng.normal(loc=60.0, size=(150, 8))
        data = np.vstack([blob_a, blob_b])
        index = TauMGIndex(tau=0.05, candidate_pool=16).build(data)
        reachable = index._reachable_from_entry(len(data))
        assert len(reachable) == len(data)
        # queries near either blob find their true neighbors
        hit_a = index.search(blob_a[0], 1)[0]
        assert hit_a.distance < 1e-9
        hit_b = index.search(blob_b[0], 1)[0]
        assert hit_b.distance < 1e-9


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
