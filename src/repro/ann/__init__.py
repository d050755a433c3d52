"""Approximate nearest neighbor search (paper Sec. II-D).

The API-retrieval module and the store's catalog index search the
text-embedding space with the paper's tau-MG proximity-graph index
(Def. 2/3: edge occlusion rule, greedy routing).  This package holds
what they build:

* :class:`TauMGIndex` — the tau-monotonic graph (``tau = 0`` is the
  MRNG),
* :class:`BruteForceIndex` — exact scan, used for tiny catalogs and as
  the ground truth.

The E6 baselines (HNSW, a VP-tree) and the recall/work harness live
beside their benchmark, in ``benchmarks/ann_baselines``.
"""

from .base import AnnIndex, SearchResult
from .kernels import stable_topk
from .brute_force import BruteForceIndex
from .tau_mg import TauMGIndex

__all__ = [
    "AnnIndex",
    "SearchResult",
    "BruteForceIndex",
    "TauMGIndex",
    "stable_topk",
]
