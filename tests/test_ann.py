"""Tests for the ANN indexes (brute force, tau-MG and its tau = 0 MRNG).

The E6 baselines' tests (HNSW, VP-tree, the recall harness) live beside
them in ``benchmarks/ann_baselines/tests``.
"""

import numpy as np
import pytest

from repro.ann import BruteForceIndex, TauMGIndex
from repro.errors import IndexError_

#: Default-parameter index per name; the MRNG is tau-MG at tau = 0.
FACTORIES = {
    "BruteForceIndex": BruteForceIndex,
    "MRNGIndex": lambda: TauMGIndex(tau=0.0),
    "TauMGIndex": TauMGIndex,
}


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
    """One default-parameter build of ``data`` per index name.

    Built on first use and shared by every read-only test of the
    module; tests that mutate an index or need other parameters build
    their own.
    """
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = FACTORIES[name]().build(data)
        return cache[name]

    return get


class TestBruteForce:
    def test_exact_nearest(self, data, built):
        index = built("BruteForceIndex")
        hits = index.search(data[17], k=1)
        assert hits[0].vector_id == 17
        assert hits[0].distance == pytest.approx(0.0)

    def test_sorted_by_distance(self, data, built):
        index = built("BruteForceIndex")
        hits = index.search(np.zeros(12), k=10)
        distances = [h.distance for h in hits]
        assert distances == sorted(distances)

    def test_k_capped_at_n(self):
        index = BruteForceIndex().build(np.eye(3))
        assert len(index.search(np.zeros(3), k=10)) == 3

    def test_counts_distances(self, data, built):
        index = built("BruteForceIndex")
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
        index = built("BruteForceIndex")
        with pytest.raises(IndexError_):
            index.search(np.zeros(5))

    def test_bad_k(self, built):
        index = built("BruteForceIndex")
        with pytest.raises(IndexError_):
            index.search(np.zeros(12), k=0)

    def test_bad_tau(self):
        with pytest.raises(IndexError_):
            TauMGIndex(tau=-0.1)


class TestProximityGraphs:
    @pytest.mark.parametrize("name", ["MRNGIndex", "TauMGIndex"])
    def test_high_recall(self, queries, built, name):
        truth = built("BruteForceIndex").search_batch(queries, 10)
        hits = built(name).search_batch(queries, 10)
        recall = np.mean([
            len({h.vector_id for h in got} & {h.vector_id for h in want})
            / len(want) for got, want in zip(hits, truth)])
        assert recall > 0.85

    def test_tau_mg_superset_of_mrng_edges(self, data):
        """Def. 3 with tau>0 occludes *less*, so tau-MG keeps >= edges."""
        mrng = TauMGIndex(tau=0.0, max_degree=16).build(data)
        taumg = TauMGIndex(tau=0.1, max_degree=16).build(data)
        assert taumg.n_edges() >= mrng.n_edges()

    def test_every_node_reachable(self, data, built):
        index = built("TauMGIndex")
        reachable = index._reachable_from_entry(len(data))
        assert len(reachable) == len(data)

    def test_single_point(self):
        index = TauMGIndex().build(np.array([[1.0, 2.0]]))
        hits = index.search(np.array([0.0, 0.0]), k=1)
        assert hits[0].vector_id == 0

    def test_self_query_found(self, data, built):
        index = built("TauMGIndex")
        hits = index.search(data[5], k=1)
        assert hits[0].vector_id == 5

    def test_routing_hops_bounded(self, data, queries, built):
        index = built("TauMGIndex")
        for q in queries[:5]:
            assert index.routing_hops(q) < len(data)

    def test_fewer_distances_than_brute_force(self, data, queries, built):
        index = built("TauMGIndex")
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
