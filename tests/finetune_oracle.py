"""Reference finetuning path: featurize, distribute, update — per step.

This is the trainer as it was before :class:`~repro.llm.chain_model.
ChainLanguageModel` got its one SGD body and :class:`~repro.finetune.
Finetuner` started compiling token examples: every step featurizes the
state, asks for the next-token distribution (which featurizes it
again), builds the one-hot or soft target, and updates the touched
weight columns with two gathers and two scatters.  It is written for
clarity, not speed; ``tests/test_finetune_oracle.py`` asserts the
production trainer reaches exactly the same weights and losses.

Only the feature map (``featurize``), the candidate set
(``candidate_ids``) and the rollout scorer are shared with the
production code — everything that decides the update is here.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np

from repro.config import FinetuneConfig
from repro.errors import ModelError
from repro.finetune.rollout import score_candidates
from repro.llm.chain_model import (
    EOS,
    ChainLanguageModel,
    GenerationState,
    TrainingExample,
)


def next_distribution(model: ChainLanguageModel,
                      state: GenerationState) -> np.ndarray:
    """Masked softmax over the full vocabulary."""
    features = model.featurize(state)
    idx = np.fromiter(features.keys(), dtype=np.int64)
    vals = np.fromiter(features.values(), dtype=np.float64)
    logits = model._weights[:, idx] @ vals
    mask = np.full(model.vocab_size, -np.inf)
    mask[model.candidate_ids(state)] = 0.0
    logits = logits + mask
    logits -= logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    return probs


def weighted_step(model: ChainLanguageModel, state: GenerationState,
                  target_weights: dict[str, float],
                  learning_rate: float) -> float:
    """One SGD step toward a target distribution; returns its loss."""
    total = sum(target_weights.values())
    if total <= 0:
        raise ModelError("target weights must sum to > 0")
    features = model.featurize(state)
    probs = next_distribution(model, state)
    target_vec = np.zeros(model.vocab_size)
    for name, weight in target_weights.items():
        target_vec[model.token_id(name)] = weight / total
    error = probs - target_vec
    idx = np.fromiter(features.keys(), dtype=np.int64)
    vals = np.fromiter(features.values(), dtype=np.float64)
    model._weights[:, idx] -= learning_rate * np.outer(error, vals)
    if model.l2 > 0:
        model._weights[:, idx] *= (1.0 - learning_rate * model.l2)
    return -float(np.sum(target_vec * np.log(np.maximum(probs, 1e-300))))


def train_chain(model: ChainLanguageModel, example: TrainingExample,
                learning_rate: float) -> float:
    """Teacher forcing on the first target chain, one step per token."""
    chain = example.target_chains[0]
    state = example.state()
    loss = 0.0
    for name in chain:
        loss += weighted_step(model, state, {name: 1.0}, learning_rate)
        state = state.advance(name)
    loss += weighted_step(model, state, {EOS: 1.0}, learning_rate)
    return loss / (len(chain) + 1)


def matching_step(model: ChainLanguageModel, example: TrainingExample,
                  config: FinetuneConfig, rng: random.Random) -> float:
    """One example under the matching + rollout objective."""
    state = example.state()
    max_length = max(len(chain) for chain in example.target_chains) + 2
    total_loss = 0.0
    steps = 0
    for __ in range(max_length):
        scores = score_candidates(
            model, state, example.target_chains, rollouts=config.rollouts,
            alpha=config.alpha, max_length=max_length, rng=rng)
        best_score = min(scores.values())
        weights = {name: math.exp(-4.0 * (loss - best_score))
                   for name, loss in scores.items()}
        norm = sum(weights.values())
        total_loss += weighted_step(
            model, state, {name: w / norm for name, w in weights.items()},
            config.learning_rate)
        steps += 1
        best = min(scores, key=lambda name: (scores[name],
                                             0 if name == EOS else 1, name))
        if best == EOS:
            break
        state = state.advance(best)
    return total_loss / max(steps, 1)


def train(model: ChainLanguageModel, examples: Sequence[TrainingExample],
          config: FinetuneConfig, objective: str,
          seed: int = 0) -> list[float]:
    """The epoch loop; returns the per-epoch mean training losses."""
    rng = random.Random(seed)
    losses = []
    order = list(examples)
    for __ in range(config.epochs):
        rng.shuffle(order)
        epoch_loss = 0.0
        for example in order:
            if objective == "token":
                epoch_loss += train_chain(model, example,
                                          config.learning_rate)
            else:
                epoch_loss += matching_step(model, example, config, rng)
        losses.append(epoch_loss / len(order))
    return losses
