"""Tests for tokenization, TF-IDF and the hashing embedder."""

import numpy as np
import pytest

from repro.embedding import (
    HashingEmbedder,
    TfidfModel,
    Vocabulary,
    char_ngrams,
    tokenize,
    word_ngrams,
)
from repro.errors import EmbeddingError


class TestTokenizer:
    def test_basic(self):
        assert tokenize("Count the triangles!") == ["count", "triangles"]

    def test_stop_words_kept_on_request(self):
        assert "the" in tokenize("the graph", drop_stop_words=False)

    def test_numbers_kept(self):
        assert tokenize("top 5 nodes") == ["top", "5", "nodes"]

    def test_word_ngrams(self):
        assert list(word_ngrams(["a", "b", "c"], 2)) == ["a b", "b c"]
        assert list(word_ngrams(["a"], 2)) == []
        with pytest.raises(ValueError):
            list(word_ngrams(["a"], 0))

    def test_char_ngrams_normalized(self):
        grams = list(char_ngrams("Ab, cd", 3))
        assert "ab " in grams
        with pytest.raises(ValueError):
            list(char_ngrams("abc", 0))


class TestVocabulary:
    def test_from_corpus(self):
        vocab = Vocabulary.from_corpus(["count nodes", "count edges"])
        assert vocab.n_documents == 2
        assert vocab.document_frequency("count") == 2
        assert vocab.document_frequency("edges") == 1
        assert "nodes" in vocab
        assert vocab.index("missing") is None

    def test_ids_stable(self):
        vocab = Vocabulary.from_corpus(["alpha beta"])
        assert vocab.tokens() == ["alpha", "beta"] or \
            vocab.tokens() == ["beta", "alpha"]
        assert len(vocab) == 2


class TestTfidf:
    def test_identical_texts_similarity_one(self):
        model = TfidfModel.fit(["count the nodes", "find communities"])
        assert model.similarity("count nodes", "count nodes") == \
            pytest.approx(1.0)

    def test_relevant_beats_irrelevant(self):
        model = TfidfModel.fit([
            "count the nodes of the graph",
            "detect communities in the network",
            "compute the diameter",
        ])
        target = "count nodes"
        assert model.similarity(target, "count the nodes of the graph") > \
            model.similarity(target, "compute the diameter")

    def test_oov_is_zero_vector(self):
        model = TfidfModel.fit(["alpha beta"])
        assert np.allclose(model.transform("gamma delta"), 0.0)

    def test_empty_vocab_raises(self):
        with pytest.raises(EmbeddingError):
            TfidfModel(Vocabulary())


class TestHashingEmbedder:
    def test_unit_norm(self):
        embedder = HashingEmbedder(dim=64)
        v = embedder.embed("count the triangles of G")
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert v.shape == (64,)

    def test_deterministic(self):
        e = HashingEmbedder(dim=64)
        assert np.allclose(e.embed("hello graph"), e.embed("hello graph"))

    def test_similar_texts_closer(self):
        e = HashingEmbedder(dim=256)
        a = e.embed("detect communities in the social network")
        b = e.embed("find communities of the network")
        c = e.embed("predict molecule toxicity")
        # unit vectors: the dot product is the cosine similarity
        assert np.dot(a, b) > np.dot(a, c)

    def test_empty_text_raises(self):
        with pytest.raises(EmbeddingError):
            HashingEmbedder().embed("?!...")

    def test_stop_words_still_produce_char_features(self):
        # stop-word-only text embeds via char n-grams (robustness)
        v = HashingEmbedder().embed("the of a")
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_small_dim_rejected(self):
        with pytest.raises(EmbeddingError):
            HashingEmbedder(dim=4)

    def test_batch_shape(self):
        e = HashingEmbedder(dim=32)
        matrix = e.embed_batch(["one text", "another text"])
        assert matrix.shape == (2, 32)

    def test_tfidf_weighting_changes_vector(self):
        model = TfidfModel.fit(["count nodes", "count edges",
                                "count triangles"])
        plain = HashingEmbedder(dim=128)
        weighted = HashingEmbedder(dim=128, tfidf=model)
        text = "count nodes"
        assert not np.allclose(plain.embed(text), weighted.embed(text))


class TestTfidfDetails:
    def test_idf_decreases_with_frequency(self):
        model = TfidfModel.fit(["alpha beta", "alpha gamma",
                                "alpha delta"])
        assert model.idf("alpha") < model.idf("beta")

    def test_unseen_token_gets_max_idf(self):
        model = TfidfModel.fit(["alpha beta"])
        assert model.idf("zeta") >= model.idf("alpha")

    def test_vocabulary_token_order_stable(self):
        vocab = Vocabulary.from_corpus(["zeta alpha", "beta"])
        tokens = vocab.tokens()
        assert [vocab.index(token) for token in tokens] == \
            list(range(len(tokens)))
