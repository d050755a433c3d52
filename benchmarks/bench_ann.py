"""E6 — tau-MG vs PG baselines (paper Sec. II-D claims).

Reproduces the shape of the tau-MG claims: at matched recall the tau-MG
needs the fewest distance computations among proximity graphs, and its
greedy-routing hop count grows sublinearly in n (the paper bounds it by
O(n^(1/m) (ln n)^2)).
"""

from __future__ import annotations

import numpy as np
import pytest

from ann_baselines import HNSWIndex, VPTreeIndex, evaluate_index, ground_truth
from repro.ann import BruteForceIndex, TauMGIndex

DIM = 32
N_QUERIES = 30


def make_data(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, DIM)), rng.normal(size=(N_QUERIES, DIM))


@pytest.fixture(scope="module")
def corpus():
    data, queries = make_data(3000)
    truth = ground_truth(data, queries, 10)
    indexes = {
        "brute-force": BruteForceIndex().build(data),
        "VP-tree": VPTreeIndex().build(data),
        "MRNG": TauMGIndex(tau=0.0, ef_search=32).build(data),
        "tau-MG": TauMGIndex(tau=0.05, ef_search=32).build(data),
        "HNSW": HNSWIndex(ef_search=32).build(data),
    }
    return data, queries, truth, indexes


def test_recall_vs_work(corpus, report_table, benchmark):
    """Recall@10 and distance computations per query, per index."""
    data, queries, truth, indexes = corpus
    rows = [f"{'index':<14} {'recall@10':>9} {'dists/query':>12} "
            f"{'ms/query':>9}"]
    results = {}
    for name, index in indexes.items():
        result = evaluate_index(index, data, queries, k=10, name=name,
                                truth=truth)
        results[name] = result
        rows.append(f"{name:<14} {result.recall:9.3f} "
                    f"{result.mean_distance_computations:12.1f} "
                    f"{result.mean_query_seconds * 1e3:9.3f}")
    report_table("E6-ann-recall-vs-work", *rows)

    # shape checks: every PG beats brute force on work at recall > 0.85
    brute = results["brute-force"]
    for name in ("MRNG", "tau-MG", "HNSW"):
        assert results[name].recall > 0.85
        assert results[name].mean_distance_computations < \
            brute.mean_distance_computations / 2
    # epsilon guarantee of Def. 2 holds on nearly all queries
    assert results["tau-MG"].epsilon_satisfaction > 0.9
    # the metric-tree baseline is exact but barely prunes in d=32
    # (curse of dimensionality) — the reason PG indexes win at scale
    assert results["VP-tree"].recall == 1.0
    assert results["VP-tree"].mean_distance_computations > \
        results["tau-MG"].mean_distance_computations * 2

    tau_mg = indexes["tau-MG"]
    benchmark(lambda: tau_mg.search(queries[0], 10))


def test_hop_scaling(report_table, benchmark):
    """Greedy-routing hops vs n: sublinear growth (tau-MG claim)."""
    sizes = (500, 1000, 2000, 4000)
    rows = [f"{'n':>6} {'mean hops tau-MG':>17} {'mean hops MRNG':>15} "
            f"{'bound n^(1/2)ln(n)^2':>21}"]
    hop_means = []
    for n in sizes:
        data, queries = make_data(n, seed=n)
        tau_mg = TauMGIndex(tau=0.05).build(data)
        mrng = TauMGIndex(tau=0.0).build(data)
        hops_tau = float(np.mean([tau_mg.routing_hops(q) for q in queries]))
        hops_mrng = float(np.mean([mrng.routing_hops(q) for q in queries]))
        bound = (n ** 0.5) * (np.log(n) ** 2)
        rows.append(f"{n:>6} {hops_tau:>17.2f} {hops_mrng:>15.2f} "
                    f"{bound:>21.0f}")
        hop_means.append(hops_tau)
    report_table("E6-ann-hop-scaling", *rows)

    # sublinear: hops grow much slower than n (8x data, < 4x hops)
    assert hop_means[-1] < hop_means[0] * 4 + 4

    data, queries = make_data(1000, seed=1)
    index = TauMGIndex(tau=0.05).build(data)
    benchmark(lambda: index.routing_hops(queries[0]))


def test_tau_ablation(corpus, report_table, benchmark):
    """tau sweep: tau=0 degenerates to MRNG; growing tau adds edges."""
    data, queries, truth, __ = corpus
    rows = [f"{'tau':>6} {'edges':>8} {'recall@10':>9} {'dists/query':>12}"]
    previous_edges = None
    for tau in (0.0, 0.02, 0.05, 0.1):
        index = TauMGIndex(tau=tau, ef_search=32).build(data)
        result = evaluate_index(index, data, queries, k=10, truth=truth)
        rows.append(f"{tau:>6.2f} {index.n_edges():>8} "
                    f"{result.recall:>9.3f} "
                    f"{result.mean_distance_computations:>12.1f}")
        if previous_edges is not None:
            assert index.n_edges() >= previous_edges  # Def. 3 monotone
        previous_edges = index.n_edges()
    report_table("E6-ann-tau-ablation", *rows)
    benchmark(lambda: TauMGIndex(tau=0.05).build(data[:400]))
