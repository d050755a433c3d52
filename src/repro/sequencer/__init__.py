"""Graph sequentializer (paper Sec. II-B).

LLMs consume sequences, so a prompt graph must be linearized.  This
package implements the paper's two-level scheme:

* :mod:`path_cover` — the length-constrained path cover: for each node
  ``u``, paths starting at ``u`` of length <= ``l`` that cover the
  subgraph within ``l`` hops of ``u`` (at most O(|G| * 2^l) paths).
* :mod:`supergraph` — motif-based coarsening: motifs (cliques, triangles)
  contract to super-nodes, and the coarse graph is sequentialized too,
  exposing multi-level structure (communities, protein-like tertiary
  structure) to the model.
* :mod:`serializer` — the bag of tokens over both covers that
  :mod:`repro.llm` conditions on, counted off the walk; the token
  sequences themselves are a lazy explain/trace view.

All of them run on :class:`repro.graphs.TopologyView`, the interned
snapshot (int ids, int adjacency) a graph memoises per topology.
"""

from .path_cover import CoverStats, length_constrained_path_cover
from .supergraph import SuperGraph, build_supergraph
from .serializer import GraphSequences, GraphSequentializer

__all__ = [
    "CoverStats",
    "length_constrained_path_cover",
    "SuperGraph",
    "build_supergraph",
    "GraphSequences",
    "GraphSequentializer",
]
