"""Embedding + ANN retrieval over API descriptions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ann.base import AnnIndex
from ..ann.brute_force import BruteForceIndex
from ..ann.tau_mg import TauMGIndex
from ..apis.registry import APIRegistry, Category
from ..config import RetrievalConfig
from ..embedding.hashing import HashingEmbedder
from ..errors import EmbeddingError, IndexError_


@dataclass(frozen=True)
class RetrievedAPI:
    """One retrieval hit."""

    name: str
    distance: float
    rank: int


class APIRetriever:
    """Find the APIs most relevant to a prompt text.

    The retriever embeds each registered API's description (name tokens
    folded in) once at construction, builds a tau-MG index over the
    vectors, and serves top-k queries.  A category filter supports the
    graph-type routing of scenario 1 (e.g. only social + generic +
    report APIs for a social network).

    Example::

        retriever = APIRetriever(registry, RetrievalConfig())
        hits = retriever.retrieve("find communities in my network", k=4)
    """

    def __init__(self, registry: APIRegistry,
                 config: RetrievalConfig | None = None,
                 index: AnnIndex | None = None,
                 use_idf: bool = False) -> None:
        self.registry = registry
        self.config = config or RetrievalConfig()
        self._names = registry.names()
        if not self._names:
            raise IndexError_("registry is empty; nothing to retrieve")
        #: Category per vector id, snapshotted once so ranking avoids a
        #: registry lookup per ANN hit.
        self._hit_categories = [registry.get(name).category
                                for name in self._names]
        descriptions = [self._document(name) for name in self._names]
        tfidf = None
        if use_idf:
            # weight rare description terms higher (fit on the catalog)
            from ..embedding.tfidf import TfidfModel
            tfidf = TfidfModel.fit(descriptions)
        self.embedder = HashingEmbedder(dim=self.config.embedding_dim,
                                        tfidf=tfidf)
        self._vectors = self.embedder.embed_batch(descriptions)
        if index is None:
            if len(self._names) >= 8:
                index = TauMGIndex(tau=self.config.tau,
                                   ef_search=self.config.ef_search)
            else:
                index = BruteForceIndex()
        self.index = index.build(self._vectors)

    def _document(self, name: str) -> str:
        spec = self.registry.get(name)
        return f"{name.replace('_', ' ')}. {spec.description}"

    def _embed_queries(self, texts: list[str]
                       ) -> "dict[str, np.ndarray | EmbeddingError]":
        """Embed each distinct text once.

        Maps every text to its vector, or to the embedder's
        :class:`~repro.errors.EmbeddingError` where the text cannot be
        embedded.  No query vector is cached: a server's retrieval
        cache (:class:`repro.core.stages.RetrieveStage`) answers a
        repeated text before it gets here.
        """
        vectors: dict[str, np.ndarray | EmbeddingError] = {}
        for text in dict.fromkeys(texts):
            try:
                vectors[text] = self.embedder.embed(text)
            except EmbeddingError as exc:
                vectors[text] = exc
        return vectors

    def _resolve_k(self, k: int | None) -> int:
        if k is None:
            return self.config.top_k_apis
        if k < 1:
            raise IndexError_("k must be >= 1")
        return k

    # ------------------------------------------------------------------
    def retrieve(self, text: str, k: int | None = None,
                 categories: tuple[Category, ...] | None = None
                 ) -> list[RetrievedAPI]:
        """Top-k APIs for ``text``, optionally filtered by category.

        A batch of one: ``retrieve_batch([text], k, [categories])[0]``,
        except that unembeddable text raises the embedder's
        :class:`~repro.errors.EmbeddingError` instead of yielding
        ``None``.
        """
        hits = self.retrieve_batch([text], k, [categories])[0]
        if hits is None:
            raise self._embed_queries([text])[text]
        return hits

    def retrieve_batch(self, texts: list[str], k: int | None = None,
                       categories_per: "list[tuple[Category, ...] | None] "
                       "| None" = None
                       ) -> list[list[RetrievedAPI] | None]:
        """Top-k APIs per input text; ``None`` where it cannot be embedded.

        Each distinct text is embedded once and the
        ANN index is queried with ``search_batch``, so the per-query
        Python overhead is amortized across the whole batch.  The
        category filter is applied *after* ANN search with an enlarged
        candidate pool, so filtered queries still return k results
        whenever k are available.
        """
        k = self._resolve_k(k)
        if categories_per is None:
            categories_per = [None] * len(texts)
        if len(categories_per) != len(texts):
            raise IndexError_("categories_per must match texts in length")
        vectors = self._embed_queries(texts)
        results: list[list[RetrievedAPI] | None] = [None] * len(texts)
        # group by candidate-pool size: a query's pool (and thus its
        # hit list and truncation) must not depend on its batch mates
        by_pool: dict[int, list[int]] = {}
        for i, (text, categories) in enumerate(zip(texts, categories_per)):
            if isinstance(vectors[text], EmbeddingError):
                continue
            pool = k if categories is None else min(len(self._names), 4 * k)
            by_pool.setdefault(pool, []).append(i)
        for pool, rows in by_pool.items():
            queries = np.stack([vectors[texts[i]] for i in rows])
            hit_lists = self.index.search_batch(queries, k=pool)
            for i, hits in zip(rows, hit_lists):
                results[i] = self._rank_pairs(hits, k, categories_per[i])
        return results

    def _rank_pairs(self, hits: "list[tuple[int, float]]", k: int,
                    categories: tuple[Category, ...] | None
                    ) -> list[RetrievedAPI]:
        """Apply the category filter and re-rank the surviving hits."""
        results: list[RetrievedAPI] = []
        names, hit_categories = self._names, self._hit_categories
        for vector_id, distance in hits:
            if (categories is not None
                    and hit_categories[vector_id] not in categories):
                continue
            results.append(RetrievedAPI(name=names[vector_id],
                                        distance=distance,
                                        rank=len(results)))
            if len(results) == k:
                break
        return results

    def retrieve_names(self, text: str, k: int | None = None,
                       categories: tuple[Category, ...] | None = None
                       ) -> tuple[str, ...]:
        """Like :meth:`retrieve` but returns just the ranked names."""
        return tuple(hit.name for hit in self.retrieve(text, k, categories))

    # ------------------------------------------------------------------
    def exact_retrieve(self, text: str, k: int | None = None
                       ) -> list[RetrievedAPI]:
        """Brute-force retrieval (ground truth for recall benchmarks)."""
        k = self._resolve_k(k)
        query = self.embedder.embed(text)
        distances = np.linalg.norm(self._vectors - query, axis=1)
        order = np.argsort(distances, kind="stable")[:k]
        return [RetrievedAPI(name=self._names[int(i)],
                             distance=float(distances[i]), rank=rank)
                for rank, i in enumerate(order)]
