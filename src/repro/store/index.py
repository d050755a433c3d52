"""Incrementally maintained ANN index over a stored graph's nodes.

The durable-store analogue of pgvector in the reference architecture:
each node's identity + attributes are embedded (deterministic feature
hashing) and kept searchable in a mutable :class:`~repro.ann.base.
AnnIndex`.  Catalog mutations stream into the index — node added ->
:meth:`insert <repro.ann.base.AnnIndex.insert>`, node removed ->
tombstoned delete, attribute set -> delete + re-insert — and a
background :meth:`compact` rewrites the index bit-compatibly with a
fresh build over the live vectors (the PR's incremental-index parity
gate).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Mapping

import numpy as np

from ..ann.base import AnnIndex
from ..ann.tau_mg import TauMGIndex
from ..embedding.hashing import HashingEmbedder
from ..errors import StoreError
from ..graphs.graph import Graph, Node

IndexFactory = Callable[[], AnnIndex]


def default_index_factory() -> AnnIndex:
    """The catalog's default mutable index: a small tau-MG graph."""
    return TauMGIndex(max_degree=8, candidate_pool=24, ef_search=32)


def node_text(node: Node, attrs: Mapping[str, Any]) -> str:
    """Deterministic embedding text for a node (id + attributes)."""
    return ("node " + json.dumps(node, sort_keys=True, default=repr)
            + " " + json.dumps(dict(attrs), sort_keys=True, default=repr))


class NodeVectorIndex:
    """Mutable ANN index keyed by node id, fed by store edits."""

    def __init__(self, index_factory: IndexFactory | None = None,
                 dim: int = 64,
                 embedder: HashingEmbedder | None = None) -> None:
        self.index_factory = index_factory or default_index_factory
        self.index = self.index_factory()
        self.embedder = embedder or HashingEmbedder(dim=dim)
        self._vid_to_node: dict[int, Node] = {}
        self._node_to_vid: dict[Node, int] = {}
        self.incremental_inserts = 0
        self.incremental_deletes = 0
        self.compactions = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build_from(self, graph: Graph) -> "NodeVectorIndex":
        """Fresh build over every node of ``graph`` (iteration order)."""
        self.index = self.index_factory()
        self._vid_to_node = {}
        self._node_to_vid = {}
        nodes = list(graph.nodes())
        if nodes:
            texts = [node_text(node, graph.node_attrs(node))
                     for node in nodes]
            self.index.build(self.embedder.embed_batch(texts))
            self._vid_to_node = dict(enumerate(nodes))
            self._node_to_vid = {node: vid for vid, node
                                 in enumerate(nodes)}
        return self

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def add_node(self, node: Node, attrs: Mapping[str, Any]) -> int:
        if node in self._node_to_vid:
            raise StoreError(f"node {node!r} already indexed")
        vid = self.index.insert(self.embedder.embed(
            node_text(node, attrs)))
        self._vid_to_node[vid] = node
        self._node_to_vid[node] = vid
        self.incremental_inserts += 1
        return vid

    def remove_node(self, node: Node) -> None:
        vid = self._node_to_vid.pop(node, None)
        if vid is None:
            raise StoreError(f"node {node!r} not indexed")
        del self._vid_to_node[vid]
        self.index.delete(vid)
        self.incremental_deletes += 1

    def update_node(self, node: Node, attrs: Mapping[str, Any]) -> int:
        """Attribute change: the node's vector is replaced."""
        self.remove_node(node)
        return self.add_node(node, attrs)

    def compact(self) -> None:
        """Rewrite the index over live vectors (fresh-build parity)."""
        id_map = self.index.compact()
        self._vid_to_node = {id_map[vid]: node for vid, node
                             in self._vid_to_node.items()}
        self._node_to_vid = {node: vid for vid, node
                             in self._vid_to_node.items()}
        self.compactions += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def search_text(self, text: str,
                    k: int = 5) -> list[tuple[Node, float]]:
        """The ``k`` nodes whose embedding is nearest to ``text``."""
        if not self._node_to_vid:
            return []
        hits = self.index.search(self.embedder.embed(text), k)
        return [(self._vid_to_node[hit.vector_id], hit.distance)
                for hit in hits]

    def search_like(self, node: Node,
                    k: int = 5) -> list[tuple[Node, float]]:
        """Nearest neighbors of an already-indexed node (excluding it)."""
        vid = self._node_to_vid.get(node)
        if vid is None:
            raise StoreError(f"node {node!r} not indexed")
        assert self.index._data is not None
        hits = self.index.search(self.index._data[vid], k + 1)
        return [(self._vid_to_node[hit.vector_id], hit.distance)
                for hit in hits if hit.vector_id != vid][:k]

    @property
    def size(self) -> int:
        return len(self._node_to_vid)

    def live_vectors(self) -> np.ndarray:
        """Live vectors in ascending id order (the compaction input)."""
        if self.index._data is None:
            return np.empty((0, self.embedder.dim))
        return self.index._data[np.array(self.index.live_ids(),
                                         dtype=np.intp)]

    def stats(self) -> dict[str, Any]:
        return {
            "nodes": self.size,
            "tombstones": self.index.n_tombstones,
            "incremental_inserts": self.incremental_inserts,
            "incremental_deletes": self.incremental_deletes,
            "compactions": self.compactions,
        }
