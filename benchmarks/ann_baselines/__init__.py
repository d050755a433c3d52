"""The E6 ANN baselines (``benchmarks/bench_ann.py``).

The served system builds only :class:`repro.ann.TauMGIndex` and
:class:`repro.ann.BruteForceIndex`; the indexes E6 compares them
against live here, beside their one benchmark:

* :class:`HNSWIndex` — hierarchical navigable small world graphs,
* :class:`VPTreeIndex` — an exact vantage-point metric tree,

plus the recall/work harness in :mod:`ann_baselines.evaluation`.  Their
tests are under ``ann_baselines/tests``::

    PYTHONPATH=src python -m pytest -q benchmarks/ann_baselines/tests
"""

from .evaluation import (
    EvaluationResult,
    evaluate_index,
    ground_truth,
    recall_at_k,
)
from .hnsw import HNSWIndex
from .vptree import VPTreeIndex

__all__ = [
    "EvaluationResult",
    "HNSWIndex",
    "VPTreeIndex",
    "evaluate_index",
    "ground_truth",
    "recall_at_k",
]
