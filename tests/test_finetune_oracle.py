"""The trainer reaches the reference path's weights bit for bit.

``tests/finetune_oracle.py`` keeps the per-step path (featurize, then
the next-token distribution, then the weighted update) and the epoch
loop it ran in; the production trainer compiles each token example once
and runs every step through one gather/scatter SGD body.  Same floats,
same order: the weights must be ``np.array_equal`` and the per-epoch
losses exactly equal.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro import ChatGraph
from repro.apis import default_registry
from repro.config import FinetuneConfig
from repro.errors import ModelError
from repro.finetune import CorpusSpec, Finetuner, build_corpus
from repro.llm import ChainLanguageModel, TrainingExample
from repro.retrieval import APIRetriever

from . import finetune_oracle as oracle


@functools.lru_cache(maxsize=None)
def _train_split(seed: int, n_examples: int, ambiguous_fraction: float):
    registry = default_registry()
    train, __ = build_corpus(
        registry, CorpusSpec(n_examples=n_examples, seed=seed,
                             ambiguous_fraction=ambiguous_fraction),
        retriever=APIRetriever(registry))
    return registry.names(), tuple(train)


def _twins(names, l2: float = 1e-3):
    return (ChainLanguageModel(api_names=names, seed=0, l2=l2),
            ChainLanguageModel(api_names=names, seed=0, l2=l2))


@pytest.mark.parametrize("l2", [0.0, 1e-3])
@pytest.mark.parametrize("ambiguous_fraction", [0.0, 0.5])
@pytest.mark.parametrize("n_examples", [60, 600])
@pytest.mark.parametrize("seed", [0, 1, 3])
def test_token_objective_matches_oracle(seed, n_examples,
                                        ambiguous_fraction, l2):
    names, train = _train_split(seed, n_examples, ambiguous_fraction)
    model, reference = _twins(names, l2)
    config = FinetuneConfig()
    report = Finetuner(model, config, seed=seed).train(train,
                                                       objective="token")
    losses = oracle.train(reference, train, config, "token", seed=seed)
    assert np.array_equal(model._weights, reference._weights)
    assert report.train_losses == losses


@pytest.mark.parametrize("rollouts", [0, 1])
def test_matching_objective_matches_oracle(rollouts):
    names, train = _train_split(0, 60, 0.0)
    model, reference = _twins(names)
    config = FinetuneConfig(epochs=2, rollouts=rollouts)
    report = Finetuner(model, config).train(train, objective="matching")
    losses = oracle.train(reference, train, config, "matching")
    assert np.array_equal(model._weights, reference._weights)
    assert report.train_losses == losses


@pytest.mark.parametrize("seed", [0, 1])
def test_pretrained_matches_oracle(seed):
    chatgraph = ChatGraph.pretrained(seed=seed)
    reference = ChatGraph(config=chatgraph.config)
    train, __ = build_corpus(reference.registry,
                             CorpusSpec(n_examples=600, seed=seed),
                             retriever=reference.retriever)
    oracle.train(reference.model, train, reference.config.finetune,
                 "token", seed=reference.config.llm.seed)
    assert np.array_equal(chatgraph.model._weights,
                          reference.model._weights)


def test_unknown_api_in_gold_chain_is_a_model_error():
    model = ChainLanguageModel(api_names=["a", "b"], seed=0)
    example = TrainingExample(question="q",
                              target_chains=(("a", "no_such_api"),))
    with pytest.raises(ModelError, match="no_such_api"):
        Finetuner(model).train([example], objective="token")
    with pytest.raises(ModelError, match="no_such_api"):
        model.train_chain(example)
