"""Vectorized numeric kernels shared by the ANN indexes.

The search bodies gather whole frontiers and evaluate them in one numpy
expression; the scalar references under ``tests/ann_oracle.py``
evaluate one point-to-query distance per call.  Both must agree
*bitwise*, so every kernel here fixes one canonical floating-point
evaluation order and :class:`~repro.ann.base.AnnIndex`'s distance
helpers route through the same expressions.
"""

from __future__ import annotations

import numpy as np


def row_sq_norms(data: np.ndarray) -> np.ndarray:
    """Per-row squared L2 norms of an ``(n, d)`` matrix.

    Precomputed once at index build time; the batched brute-force
    kernel turns ``|x - q|^2`` into ``|x|^2 - 2 x.q + |q|^2`` with one
    matmul instead of materializing ``n`` difference vectors per query.
    """
    return np.einsum("ij,ij->i", data, data)


def gathered_distances(data: np.ndarray, ids: np.ndarray,
                       query: np.ndarray) -> np.ndarray:
    """Euclidean distances from ``query`` to ``data[ids]`` (gather form).

    This is the canonical distance evaluation order: a single-row call
    (``ids`` of length 1) produces bit-identical values to a bulk call,
    however a search groups its evaluations.
    """
    diff = data[ids] - query
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def matmul_sq_distances(data: np.ndarray, sq_norms: np.ndarray,
                        queries: np.ndarray) -> np.ndarray:
    """All-pairs squared distances ``(m, n)`` via one matmul.

    ``d2[i, j] = |queries[i] - data[j]|^2`` computed as
    ``|x|^2 - 2 x.q + |q|^2``, clamped at zero (the expansion can go
    slightly negative in floating point).  Used for *candidate
    selection* only — callers recompute the exact distances of the
    selected ids with :func:`gathered_distances` so reported values
    are the canonical floats.
    """
    q_norms = np.einsum("ij,ij->i", queries, queries)
    d2 = q_norms[:, None] - 2.0 * (queries @ data.T) + sq_norms[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def stable_topk(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest values, ties broken by index.

    Equal to ``np.argsort(values, kind="stable")[:k]`` — including the
    ordering of tied values — but via ``argpartition``, so the cost is
    O(n + k log k) instead of a full O(n log n) sort.
    """
    n = values.shape[0]
    if k >= n:
        return np.argsort(values, kind="stable")
    part = np.argpartition(values, k - 1)[:k]
    kth = values[part].max()
    # everything strictly below the kth value is in the top-k; fill the
    # remaining slots with the lowest-index ties (what a stable full
    # sort would have kept)
    strict = np.flatnonzero(values < kth)
    ties = np.flatnonzero(values == kth)[:k - strict.size]
    selected = np.concatenate([strict, ties])
    order = np.argsort(values[selected], kind="stable")
    return selected[order]
