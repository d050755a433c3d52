"""Recall/efficiency evaluation harness for ANN indexes.

Work is measured in *distance computations per query* — a hardware
independent stand-in for QPS that makes the paper's "tau-MG needs the
least routing work" claim reproducible on any machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.ann import AnnIndex, BruteForceIndex


def recall_at_k(approx_ids: list[int], exact_ids: list[int]) -> float:
    """Fraction of the exact top-k found by the approximate search."""
    if not exact_ids:
        return 1.0
    return len(set(approx_ids) & set(exact_ids)) / len(exact_ids)


@dataclass(frozen=True)
class EvaluationResult:
    """Aggregate quality/efficiency of one index over a query set."""

    index_name: str
    n_data: int
    n_queries: int
    k: int
    recall: float
    mean_distance_computations: float
    mean_query_seconds: float
    #: Fraction of queries satisfying the epsilon guarantee of Def. 2.
    epsilon_satisfaction: float

    def row(self) -> str:
        """One aligned table row (benchmarks print these)."""
        return (f"{self.index_name:<14} n={self.n_data:<6} k={self.k:<3} "
                f"recall={self.recall:6.3f} "
                f"dists/query={self.mean_distance_computations:10.1f} "
                f"ms/query={self.mean_query_seconds * 1e3:8.3f} "
                f"eps-ok={self.epsilon_satisfaction:6.3f}")


def ground_truth(data: np.ndarray, queries: np.ndarray,
                 k: int) -> list[list[int]]:
    """Exact top-k ids for each query (via brute force)."""
    exact = BruteForceIndex().build(data)
    return [[hit.vector_id for hit in exact.search(q, k)] for q in queries]


def evaluate_index(index: AnnIndex, data: np.ndarray, queries: np.ndarray,
                   k: int = 10, epsilon: float = 0.1,
                   name: str | None = None,
                   truth: list[list[int]] | None = None) -> EvaluationResult:
    """Evaluate a *built* index on ``queries`` against exact ground truth."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if truth is None:
        truth = ground_truth(data, queries, k)
    exact_nn_dist = [float(np.linalg.norm(data[ids[0]] - q))
                     for ids, q in zip(truth, queries)]
    recalls = []
    eps_ok = 0
    index.reset_counters()
    start = time.perf_counter()
    for qi, query in enumerate(queries):
        hits = index.search(query, k)
        recalls.append(recall_at_k([h.vector_id for h in hits], truth[qi]))
        if hits and hits[0].distance <= (1.0 + epsilon) * exact_nn_dist[qi] \
                + 1e-12:
            eps_ok += 1
    elapsed = time.perf_counter() - start
    n_queries = len(queries)
    return EvaluationResult(
        index_name=name or type(index).__name__,
        n_data=int(data.shape[0]),
        n_queries=n_queries,
        k=k,
        recall=float(np.mean(recalls)),
        mean_distance_computations=index.distance_computations / n_queries,
        mean_query_seconds=elapsed / n_queries,
        epsilon_satisfaction=eps_ok / n_queries,
    )
