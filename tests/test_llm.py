"""Tests for the language-model substrate: intent, chain model, decoding."""

import itertools
import random

import numpy as np
import pytest

from repro.chem import parse_smiles
from repro.errors import ModelError
from repro.graphs import knowledge_graph, social_network
from repro import ChatGraph, ChatGraphConfig
from repro.config import FinetuneConfig, LLMConfig
from repro.finetune import CorpusSpec, build_corpus
from repro.llm import (
    BatchScorer,
    ChainLanguageModel,
    GraphTypePredictor,
    IntentClassifier,
    PRESETS,
    TrainingExample,
    build_model,
    greedy_decode,
    load_model,
    predict_graph_type,
    save_model,
)
from repro.llm.chain_model import EOS, GenerationState
from repro.llm.decoding import sample_chain

from . import decode_oracle as oracle
from . import finetune_oracle

APIS = ["api_a", "api_b", "api_c", "api_d"]


@pytest.fixture()
def model():
    return ChainLanguageModel(api_names=APIS, seed=0)


def state(text="do the thing", retrieved=(), prefix=(), allowed=()):
    return GenerationState(prompt_text=text, retrieved=tuple(retrieved),
                           prefix=tuple(prefix), allowed=tuple(allowed))


class TestGraphTypePredictor:
    def test_social(self):
        g = social_network(30, 3, seed=1)
        assert predict_graph_type(g) == "social"

    def test_molecule(self):
        g = parse_smiles("CC(=O)Oc1ccccc1C(=O)O").to_graph()
        assert predict_graph_type(g) == "molecule"

    def test_knowledge(self):
        assert predict_graph_type(knowledge_graph(20, 50)) == "knowledge"

    def test_generic_fallback(self):
        from repro.graphs import Graph
        g = Graph()
        g.add_nodes(range(3))
        assert predict_graph_type(g) == "generic"

    def test_prediction_has_evidence(self):
        prediction = GraphTypePredictor().predict(
            social_network(20, 2, seed=0))
        assert prediction.evidence
        assert prediction.scores["social"] > 0

    def test_structure_only_molecule(self):
        # atom graphs without kind attr still classified by elements
        from repro.graphs import Graph
        atoms = parse_smiles("CCO").to_graph()
        g = Graph()
        for node in atoms.nodes():
            g.add_node(node, **{key: value for key, value
                                in atoms.node_attrs(node).items()
                                if key != "kind"})
        for u, v in atoms.edges():
            g.add_edge(u, v, **atoms.edge_attrs(u, v))
        assert predict_graph_type(g) == "molecule"


class TestIntentClassifier:
    @pytest.mark.parametrize("text,intent", [
        ("write a brief report for G", "understand"),
        ("what molecules are similar to G", "compare"),
        ("clean G", "clean"),
        ("fix the incorrect facts", "clean"),
        ("count the triangles", "compute"),
        ("hello there", "understand"),  # default
    ])
    def test_examples(self, text, intent):
        assert IntentClassifier().predict(text) == intent


class TestChainModel:
    def test_vocab(self, model):
        assert model.vocab_size == 5
        assert model.token_name(model.eos_id) == EOS
        assert model.token_id("api_a") == 0
        with pytest.raises(ModelError):
            model.token_id("nope")

    def test_empty_vocab_rejected(self):
        with pytest.raises(ModelError):
            ChainLanguageModel(api_names=[])

    def test_distribution_sums_to_one(self, model):
        probs = model.next_distribution(state())
        assert probs.sum() == pytest.approx(1.0)
        assert probs.shape == (5,)

    def test_retrieval_restricts_candidates(self, model):
        probs = model.next_distribution(state(retrieved=["api_a"]))
        assert probs[model.token_id("api_b")] == 0.0
        assert probs[model.token_id("api_a")] > 0.0
        assert probs[model.eos_id] > 0.0

    def test_allowed_overrides_retrieved(self, model):
        s = state(retrieved=["api_a"], allowed=["api_b", "api_c"])
        probs = model.next_distribution(s)
        assert probs[model.token_id("api_a")] == 0.0
        assert probs[model.token_id("api_b")] > 0.0

    def test_prefix_masked(self, model):
        probs = model.next_distribution(state(prefix=["api_a"]))
        assert probs[model.token_id("api_a")] == 0.0

    def test_training_reduces_loss(self, model):
        s = state("count things")
        first = model.train_step(s, "api_b")
        for __ in range(30):
            last = model.train_step(s, "api_b")
        assert last < first
        probs = model.next_distribution(s)
        assert int(np.argmax(probs)) == model.token_id("api_b")

    def test_training_discriminates_prompts(self, model):
        for __ in range(40):
            model.train_step(state("count the nodes"), "api_a")
            model.train_step(state("find communities"), "api_b")
        assert greedy_decode(model, state("count the nodes"))[0] == "api_a"
        assert greedy_decode(model, state("find communities"))[0] == "api_b"

    def test_chain_log_prob_increases_with_training(self, model):
        example = TrainingExample("do x then y",
                                  target_chains=(("api_a", "api_b"),))
        s = example.state()
        before = model.chain_log_prob(s, ["api_a", "api_b"])
        for __ in range(25):
            model.train_chain(example)
        after = model.chain_log_prob(s, ["api_a", "api_b"])
        assert after > before

    def test_weighted_step_validation(self, model):
        with pytest.raises(ModelError):
            model.train_weighted_step(state(), {"api_a": 0.0})

    def test_graph_tokens_affect_features(self, model):
        s1 = state()
        s2 = GenerationState(prompt_text=s1.prompt_text,
                             graph_tokens=(("<n:C>", 5),))
        assert oracle.featurize(model, s1) != oracle.featurize(model, s2)


class TestDecoding:
    @pytest.fixture()
    def trained(self):
        model = ChainLanguageModel(api_names=APIS, seed=1)
        example = TrainingExample("run the pipeline",
                                  target_chains=(("api_a", "api_b",
                                                  "api_c"),))
        for __ in range(60):
            model.train_chain(example)
        return model

    def test_greedy_recovers_chain(self, trained):
        out = greedy_decode(trained, state("run the pipeline"))
        assert out == ["api_a", "api_b", "api_c"]

    def test_greedy_max_length(self, trained):
        out = greedy_decode(trained, state("run the pipeline"),
                            max_length=2)
        assert len(out) <= 2

    def test_greedy_bad_length(self, trained):
        with pytest.raises(ModelError):
            greedy_decode(trained, state(), max_length=0)

    def test_sample_deterministic_rng(self, trained):
        s = state("run the pipeline")
        scorer = BatchScorer(trained, [s])
        a = sample_chain(scorer, s, 8, random.Random(3))
        b = sample_chain(scorer, s, 8, random.Random(3))
        assert a == b

    def test_sample_respects_max_length(self, trained):
        s = state()
        out = sample_chain(BatchScorer(trained, [s]), s, 2,
                           random.Random(0))
        assert len(out) <= 2


class TestPresets:
    def test_all_presets_buildable(self):
        for name in PRESETS:
            model = build_model(name, APIS)
            assert model.vocab_size == 5

    def test_unknown_preset(self):
        with pytest.raises(ModelError):
            build_model("gpt-sim", APIS)

    def test_presets_differ(self):
        """Each preset finetunes at its own learning rate and L2, so the
        three train to three different models; ``chatglm-sim`` trains
        to the weights of the reference loop at a rate of 0.5, the one
        rate every preset used to be trained at."""
        weights = {}
        for name in PRESETS:
            config = ChatGraphConfig(llm=LLMConfig(model=name))
            weights[name] = ChatGraph.pretrained(
                config=config, corpus_size=120, seed=0).model._weights
        for left, right in itertools.combinations(PRESETS, 2):
            assert not np.array_equal(weights[left], weights[right]), \
                (left, right)
        reference = ChatGraph()
        train, __ = build_corpus(reference.registry,
                                 CorpusSpec(n_examples=120, seed=0),
                                 retriever=reference.retriever)
        finetune_oracle.train(reference.model, train, FinetuneConfig(),
                              "token", learning_rate=0.5)
        assert reference.config.llm.model == "chatglm-sim"
        assert np.array_equal(weights["chatglm-sim"],
                              reference.model._weights)


class TestModelPersistence:
    def test_roundtrip_identical_distributions(self, tmp_path):
        model = ChainLanguageModel(api_names=["a", "b", "c"], seed=3)
        state = GenerationState(prompt_text="do a thing")
        for __ in range(10):
            model.train_step(state, "b")
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert np.allclose(loaded.next_distribution(state),
                           model.next_distribution(state))
        assert loaded.learning_rate == model.learning_rate
        assert loaded.token_id("c") == model.token_id("c")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelError):
            load_model(tmp_path / "missing.npz")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, junk=np.zeros(3))
        with pytest.raises(ModelError):
            load_model(path)

    def test_finetuned_chatgraph_model_roundtrip(self, chatgraph,
                                                 tmp_path):
        path = tmp_path / "chain_model.npz"
        save_model(chatgraph.model, path)
        loaded = load_model(path)
        assert loaded.vocab_size == chatgraph.model.vocab_size
