"""The decoders take the scalar reference's decisions.

``tests/decode_oracle.py`` keeps the per-state path (featurize, gather,
mask, softmax — once per state per step); production decodes through
one ``BatchScorer`` whose dense ``phi @ W.T`` differs from the sparse
dot in the last bits.  So distributions are held ``allclose`` with the
same exact zeros, and every decision built on them — greedy chains,
sampled chains under one ``rng`` stream, rollout scores, search-based
chains and evaluation metrics — is held equal, on an untrained, an
under-trained (E9's recipe) and a trained model over two corpora.
"""

from __future__ import annotations

import copy
import functools
import random

import numpy as np
import pytest

from repro.apis import default_registry
from repro.config import FinetuneConfig
from repro.finetune import (
    CorpusSpec,
    Finetuner,
    build_corpus,
    evaluate_model,
    rollout_decode,
    score_candidates,
)
from repro.llm import BatchScorer, build_model
from repro.llm.decoding import greedy_decode, greedy_decode_batch, sample_chain
from repro.retrieval import APIRetriever

from . import decode_oracle as oracle

SEEDS = (3, 5)
STAGES = ("untrained", "undertrained", "trained")


@functools.lru_cache(maxsize=None)
def _setup(seed: int, stage: str):
    """A model at ``stage`` and held-out examples of corpus ``seed``."""
    registry = default_registry()
    train, test = build_corpus(
        registry, CorpusSpec(n_examples=120, seed=seed),
        retriever=APIRetriever(registry))
    model = build_model("chatglm-sim", registry.names(), seed=0)
    if stage == "undertrained":
        Finetuner(model, FinetuneConfig(epochs=1)).train(
            train[:30], objective="token")
    elif stage == "trained":
        Finetuner(model, FinetuneConfig()).train(train, objective="token")
    return model, tuple(test[:16])


def _states(examples):
    """Each example's initial state and its gold chain's prefixes."""
    states = []
    for example in examples:
        state = example.state()
        states.append(state)
        for name in example.target_chains[0]:
            state = state.advance(name)
            states.append(state)
    return states


@pytest.fixture(params=[(seed, stage) for seed in SEEDS
                        for stage in STAGES],
                ids=lambda p: f"seed{p[0]}-{p[1]}")
def case(request):
    return _setup(*request.param)


def test_distributions_allclose_with_exact_zeros(case):
    model, examples = case
    for state in _states(examples):
        got = model.next_distribution(state)
        want = oracle.next_distribution(model, state)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        assert np.array_equal(got == 0.0, want == 0.0)
        masked = np.ones(model.vocab_size, dtype=bool)
        masked[oracle.candidate_ids(model, state)] = False
        assert np.all(got[masked] == 0.0)


def test_greedy_chains_equal(case):
    model, examples = case
    states = _states(examples)
    want = [oracle.greedy_decode(model, state) for state in states]
    assert [greedy_decode(model, state) for state in states] == want
    assert greedy_decode_batch(model, states) == want


@pytest.mark.parametrize("temperature", [0.7, 1.0, 1.5])
def test_sampled_chains_equal(case, temperature):
    """The rollout sampler draws the reference's chains from one lane,
    on flatter and sharper distributions too: sampling ``W`` at
    temperature ``T`` is sampling the model whose weights are ``W / T``."""
    model, examples = case
    model = copy.deepcopy(model)
    model._weights /= temperature
    for state in _states(examples):
        scorer = BatchScorer(model, [state])
        got, want = random.Random(7), random.Random(7)
        for __ in range(3):
            assert sample_chain(scorer, state, 8, got) == \
                oracle.sample_decode(model, state, rng=want)
        assert got.random() == want.random()  # same number of draws


@pytest.mark.parametrize("greedy_anchor", [True, False])
@pytest.mark.parametrize("rollouts", [0, 1, 4])
def test_rollout_scores_equal(case, rollouts, greedy_anchor):
    model, examples = case
    for example in examples[:6]:
        state = example.state()
        for name in example.target_chains[0][:2]:
            got, want = random.Random(11), random.Random(11)
            kwargs = dict(rollouts=rollouts, greedy_anchor=greedy_anchor)
            scores = score_candidates(model, state, example.target_chains,
                                      rng=got, **kwargs)
            reference = oracle.score_candidates(
                model, state, example.target_chains, rng=want, **kwargs)
            assert scores == reference
            assert list(scores) == list(reference)  # same key order
            assert got.random() == want.random()
            state = state.advance(name)


@pytest.mark.parametrize("rollouts", [0, 2])
def test_rollout_decode_and_metrics_equal(case, rollouts):
    model, examples = case
    got, want = random.Random(5), random.Random(5)
    for example in examples[:8]:
        assert rollout_decode(model, example.state(), example.target_chains,
                              rollouts=rollouts, rng=got) == \
            oracle.rollout_decode(model, example.state(),
                                  example.target_chains,
                                  rollouts=rollouts, rng=want)
    assert evaluate_model(model, examples) == evaluate_model(
        model, examples,
        decoder=lambda m, ex: oracle.greedy_decode(m, ex.state()))
