"""Tests for the API retrieval module."""

import numpy as np
import pytest

from repro.apis import APIRegistry, Category, default_registry
from repro.config import RetrievalConfig
from repro.errors import EmbeddingError, IndexError_
from repro.retrieval import APIRetriever


class TestRetrieval:
    def test_relevant_api_first(self, registry):
        retriever = APIRetriever(registry)
        names = retriever.retrieve_names(
            "detect the communities of my social network", k=3)
        assert "detect_communities" in names

    def test_toxicity_query(self, registry):
        retriever = APIRetriever(registry)
        names = retriever.retrieve_names("predict molecule toxicity", k=3)
        assert names[0] == "predict_toxicity"

    def test_k_respected(self, registry):
        retriever = APIRetriever(registry)
        assert len(retriever.retrieve("count nodes", k=5)) == 5

    def test_ranks_sequential(self, registry):
        retriever = APIRetriever(registry)
        hits = retriever.retrieve("clean the knowledge graph", k=4)
        assert [h.rank for h in hits] == [0, 1, 2, 3]
        distances = [h.distance for h in hits]
        assert distances == sorted(distances)

    def test_category_filter(self, registry):
        retriever = APIRetriever(registry)
        hits = retriever.retrieve("summarize the graph", k=5,
                                  categories=(Category.MOLECULE,))
        for hit in hits:
            assert registry.get(hit.name).category == Category.MOLECULE

    def test_default_k_from_config(self, registry):
        retriever = APIRetriever(registry,
                                 RetrievalConfig(top_k_apis=3))
        assert len(retriever.retrieve("anything graph related")) == 3

    def test_k_below_one_rejected_not_defaulted(self, registry):
        """``k=0`` is an error, as in ``AnnIndex.search`` — not the default."""
        retriever = APIRetriever(registry)
        for k in (0, -1):
            with pytest.raises(IndexError_):
                retriever.retrieve("count nodes", k=k)
            with pytest.raises(IndexError_):
                retriever.retrieve_batch(["count nodes"], k=k)
            with pytest.raises(IndexError_):
                retriever.exact_retrieve("count nodes", k=k)

    def test_empty_registry_rejected(self):
        with pytest.raises(IndexError_):
            APIRetriever(APIRegistry())

    def test_exact_vs_ann_agreement(self, registry):
        """tau-MG retrieval matches brute force on most queries (Def. 2)."""
        retriever = APIRetriever(registry)
        queries = [
            "count the nodes", "find influencers", "molecular formula",
            "detect incorrect facts", "shortest path between two nodes",
            "community detection", "solubility of the compound",
            "report about the graph",
        ]
        agree = 0
        for query in queries:
            ann = set(retriever.retrieve_names(query, k=5))
            exact = {h.name for h in retriever.exact_retrieve(query, k=5)}
            agree += len(ann & exact) / 5
        assert agree / len(queries) > 0.85

    def test_small_registry_uses_brute_force(self):
        from repro.ann import BruteForceIndex
        registry = APIRegistry()
        from repro.apis import APISpec
        for i in range(4):
            registry.register(APISpec(
                f"api_{i}", f"api number {i} does thing {i}",
                Category.GENERIC, lambda ctx: None))
        retriever = APIRetriever(registry)
        assert isinstance(retriever.index, BruteForceIndex)
        assert len(retriever.retrieve_names("thing 2", k=2)) == 2


class TestRetrieveBatch:
    def test_matches_scalar_retrieve(self, registry):
        retriever = APIRetriever(registry)
        texts = ["count the nodes", "find influencers",
                 "community detection", "count the nodes"]
        categories_per = [None, (Category.SOCIAL, Category.GENERIC),
                          None, (Category.MOLECULE, Category.REPORT)]
        batch = retriever.retrieve_batch(texts, k=4,
                                         categories_per=categories_per)
        for i, text in enumerate(texts):
            assert batch[i] == retriever.retrieve(
                text, k=4, categories=categories_per[i])

    def test_unembeddable_text(self, registry):
        """``None`` in a batch; the embedder's own error for a lone query."""
        retriever = APIRetriever(registry)
        batch = retriever.retrieve_batch(["count the nodes", "", "?!"], k=3)
        assert batch[0] == retriever.retrieve("count the nodes", k=3)
        assert batch[1:] == [None, None]
        with pytest.raises(EmbeddingError) as raised:
            retriever.retrieve("?!", k=3)
        with pytest.raises(EmbeddingError) as direct:
            retriever.embedder.embed("?!")
        assert str(raised.value) == str(direct.value)

    def test_categories_length_mismatch_rejected(self, registry):
        retriever = APIRetriever(registry)
        with pytest.raises(IndexError_):
            retriever.retrieve_batch(["a", "b"], categories_per=[None])

    def test_cached_vectors_never_mutated(self, registry):
        """The description vectors, embedded once at construction, are
        shared with the index (no defensive copy); every retrieval path
        must leave them bit-identical."""
        retriever = APIRetriever(registry)
        texts = ["count the nodes", "find influencers",
                 "community detection"]
        first = retriever.retrieve_batch(texts, k=3)
        snapshot = retriever._vectors.copy()
        retriever.retrieve_batch(texts, k=3)
        for text in texts:
            retriever.retrieve(text, k=3)
            retriever.retrieve(text, k=3,
                               categories=(Category.GENERIC,
                                           Category.SOCIAL,
                                           Category.REPORT))
        np.testing.assert_array_equal(retriever._vectors, snapshot)
        assert retriever.retrieve_batch(texts, k=3) == first


class TestIdfRetrieval:
    def test_idf_mode_still_retrieves(self):
        registry = default_registry()
        retriever = APIRetriever(registry, use_idf=True)
        names = retriever.retrieve_names("predict molecule toxicity", k=3)
        assert "predict_toxicity" in names

    def test_idf_changes_rankings_somewhere(self):
        registry = default_registry()
        plain = APIRetriever(registry, use_idf=False)
        weighted = APIRetriever(registry, use_idf=True)
        queries = ("summarize the graph", "clean the knowledge graph",
                   "count the triangles", "find similar molecules")
        differs = any(
            plain.retrieve_names(q, k=5) != weighted.retrieve_names(q, k=5)
            for q in queries)
        assert differs
