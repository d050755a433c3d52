"""Index interface shared by every ANN implementation."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple

import numpy as np

from ..errors import IndexError_
from .kernels import row_sq_norms


class SearchResult(NamedTuple):
    """One nearest-neighbor hit; unpacks as ``(vector_id, distance)``."""

    #: Row index of the vector in the indexed data matrix.
    vector_id: int
    #: Euclidean distance to the query.
    distance: float


class AnnIndex(ABC):
    """Abstract k-NN index over a fixed matrix of vectors.

    Subclasses implement :meth:`_build`, :meth:`_insert_one` and
    :meth:`_search_batch`, the one search hook: it answers a whole
    ``(m, d)`` query matrix, and :meth:`search` is that hook on a
    one-row matrix.  The base class owns the data matrix, validates
    inputs, filters tombstones, and counts distance evaluations
    (``distance_computations``), which the benchmarks use as a
    hardware-independent work measure.
    """

    def __init__(self) -> None:
        self._data: np.ndarray | None = None
        self._sq_norms: np.ndarray | None = None
        #: Vector ids deleted since the last build/compaction.  The
        #: rows stay in ``_data`` (graph indexes may still route
        #: through them) but every search filters them from its hits.
        self._tombstones: set[int] = set()
        #: Number of point-to-query distance evaluations since reset.
        self.distance_computations = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def build(self, data: np.ndarray) -> "AnnIndex":
        """Index ``data`` (an ``(n, d)`` float matrix); returns self."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] == 0:
            raise IndexError_("data must be a non-empty (n, d) matrix")
        self._data = data
        self._sq_norms = row_sq_norms(data)
        self._tombstones = set()
        self._build(data)
        return self

    # ------------------------------------------------------------------
    # incremental maintenance (see docs/STORE.md)
    # ------------------------------------------------------------------
    def insert(self, vector: np.ndarray) -> int:
        """Add one vector without a full rebuild; returns its id.

        Inserting into an unbuilt index builds a one-row index.  The
        incremental structure is approximate for graph indexes — a
        later :meth:`compact` restores exact fresh-build parity.
        """
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if self._data is None:
            self.build(vector[None, :])
            return 0
        if vector.shape[0] != self._data.shape[1]:
            raise IndexError_(
                f"vector dim {vector.shape[0]} != data dim "
                f"{self._data.shape[1]}")
        self._data = np.vstack([self._data, vector[None, :]])
        self._sq_norms = row_sq_norms(self._data)
        new_id = self._data.shape[0] - 1
        self._insert_one(new_id)
        return new_id

    def delete(self, vector_id: int) -> None:
        """Tombstone ``vector_id``: excluded from every later search.

        The row stays in the data matrix (graph searches may still
        route through it) until :meth:`compact` rewrites the index.
        """
        if self._data is None:
            raise IndexError_("index not built")
        if not 0 <= vector_id < self._data.shape[0]:
            raise IndexError_(f"no such vector id {vector_id}")
        if vector_id in self._tombstones:
            raise IndexError_(f"vector id {vector_id} already deleted")
        self._tombstones.add(vector_id)

    def compact(self) -> dict[int, int]:
        """Drop tombstoned rows and rebuild from the live vectors.

        Runs the exact fresh-build code path over the live rows in
        ascending id order, so the compacted index is bit-compatible
        with ``type(self)(same params).build(live_vectors)`` — same
        structure, same search results, same distance counts.  Returns
        the ``old id -> new id`` mapping of surviving vectors.
        """
        if self._data is None:
            raise IndexError_("index not built")
        live = [i for i in range(self._data.shape[0])
                if i not in self._tombstones]
        if not live:
            self._data = None
            self._sq_norms = None
            self._tombstones = set()
            return {}
        id_map = {old: new for new, old in enumerate(live)}
        self.build(self._data[np.array(live, dtype=np.intp)])
        return id_map

    @property
    def n_tombstones(self) -> int:
        return len(self._tombstones)

    @property
    def live_size(self) -> int:
        """Number of searchable (non-tombstoned) vectors."""
        return 0 if self._data is None else (
            self._data.shape[0] - len(self._tombstones))

    def live_ids(self) -> list[int]:
        """Non-tombstoned vector ids, ascending."""
        if self._data is None:
            return []
        return [i for i in range(self._data.shape[0])
                if i not in self._tombstones]

    def search(self, query: np.ndarray, k: int = 1) -> list[SearchResult]:
        """Return (approximately) the ``k`` nearest vectors to ``query``."""
        query = np.asarray(query, dtype=np.float64).ravel()
        return self.search_batch(query[None, :], k)[0]

    def search_batch(self, queries: np.ndarray,
                     k: int = 1) -> list[list[SearchResult]]:
        """Answer many queries at once; one result list per query row.

        Equal to ``[self.search(q, k) for q in queries]`` — including
        the exact distances reported and the counted work — because a
        single query *is* a batch of one.
        """
        if self._data is None:
            raise IndexError_("index not built")
        if k < 1:
            raise IndexError_("k must be >= 1")
        queries = np.asarray(queries, dtype=np.float64)
        n, dim = self._data.shape
        if queries.ndim != 2 or queries.shape[1] != dim:
            raise IndexError_(f"queries must be an (m, {dim}) matrix")
        k = min(k, n)
        if not self._tombstones:
            return self._search_batch(queries, k)
        # over-fetch so each hit list still holds k live vectors after
        # the tombstone filter, then trim
        fetch = min(n, k + len(self._tombstones))
        trim = min(k, self.live_size)
        return [[hit for hit in row
                 if hit.vector_id not in self._tombstones][:trim]
                for row in self._search_batch(queries, fetch)]

    def reset_counters(self) -> None:
        self.distance_computations = 0

    @property
    def size(self) -> int:
        return 0 if self._data is None else int(self._data.shape[0])

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _build(self, data: np.ndarray) -> None:
        """Construct index structures for ``data``."""

    @abstractmethod
    def _insert_one(self, new_id: int) -> None:
        """Index row ``new_id``; data/norms are already updated."""

    @abstractmethod
    def _search_batch(self, queries: np.ndarray,
                      k: int) -> list[list[SearchResult]]:
        """The ``k`` best hits per query row, each sorted by distance."""
