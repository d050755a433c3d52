"""The instrumented distance evaluation the baseline indexes share."""

from __future__ import annotations

import numpy as np

from repro.ann import AnnIndex
from repro.ann.kernels import gathered_distances


def counted_distances(index: AnnIndex, query: np.ndarray,
                      ids: list[int]) -> np.ndarray:
    """Distances from ``query`` to ``index``'s rows ``ids``, counted.

    Every evaluation goes through the gather kernel, so a one-id call
    and a bulk call see bit-identical floats, and each adds its size to
    ``index.distance_computations``.
    """
    index.distance_computations += len(ids)
    return gathered_distances(index._data, np.array(ids), query)
