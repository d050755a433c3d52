"""Reference decoding path: featurize, distribute, pick — per state.

These are the scalar bodies ``repro.llm`` and ``repro.finetune`` ran
before every decoder read :class:`~repro.llm.chain_model.BatchScorer`:
each step builds the state's sparse feature dict (re-tokenizing and
re-hashing the prompt), gathers the touched weight columns, masks the
candidate set and normalizes.  They are written for clarity, not speed;
``tests/test_decode_oracle.py`` asserts the production decoders take
the same decisions (chains, samples, rollout scores) and give
``allclose`` distributions with the same exact zeros.

Only the model's per-state feature parts (``_static_features``,
``_dynamic_feature_ids``, ``_base_candidate_ids``) and the matching
loss are shared with the production code.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from repro.errors import ModelError
from repro.finetune.losses import min_matching_loss
from repro.llm.chain_model import ChainLanguageModel, GenerationState

Chain = Sequence[str]


def featurize(model: ChainLanguageModel,
              state: GenerationState) -> dict[int, float]:
    """Sparse feature vector of a decoding state."""
    features = model._static_features(state)
    bias = features.pop(model.n_features - 1)
    for idx in model._dynamic_feature_ids(state):
        features[idx] = 1.0
    features[model.n_features - 1] = bias  # keep insertion order stable
    return features


def feature_arrays(model: ChainLanguageModel, state: GenerationState
                   ) -> tuple[np.ndarray, np.ndarray]:
    features = featurize(model, state)
    return (np.fromiter(features.keys(), dtype=np.int64),
            np.fromiter(features.values(), dtype=np.float64))


def candidate_ids(model: ChainLanguageModel,
                  state: GenerationState) -> list[int]:
    """Token ids decodable from ``state``: the base candidates minus the
    prefix, EOS always open."""
    ids = set(model._base_candidate_ids(state))
    ids -= {model._vocab[name] for name in state.prefix
            if name in model._vocab}
    ids.add(model.eos_id)
    return sorted(ids)


def candidate_mask(model: ChainLanguageModel,
                   state: GenerationState) -> np.ndarray:
    """0.0 on :func:`candidate_ids`, ``-inf`` elsewhere."""
    mask = np.full(model.vocab_size, -np.inf)
    mask[candidate_ids(model, state)] = 0.0
    return mask


def _softmax(logits: np.ndarray) -> np.ndarray:
    logits -= logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    return probs


def next_distribution(model: ChainLanguageModel,
                      state: GenerationState) -> np.ndarray:
    """Distribution over the full vocabulary (masked to candidates)."""
    idx, vals = feature_arrays(model, state)
    logits = model._weights[:, idx] @ vals
    return _softmax(logits + candidate_mask(model, state))


def greedy_decode(model: ChainLanguageModel, state: GenerationState,
                  max_length: int = 8) -> list[str]:
    """Always take the argmax next API; stop at EOS or ``max_length``."""
    if max_length < 1:
        raise ModelError("max_length must be >= 1")
    chain: list[str] = []
    current = state
    for __ in range(max_length):
        probs = next_distribution(model, current)
        token_id = int(np.argmax(probs))
        if token_id == model.eos_id:
            break
        name = model.token_name(token_id)
        chain.append(name)
        current = current.advance(name)
    return chain


def sample_decode(model: ChainLanguageModel, state: GenerationState,
                  max_length: int = 8,
                  rng: random.Random | None = None) -> list[str]:
    """Sample a chain token by token."""
    rng = rng or random.Random(0)
    chain: list[str] = []
    current = state
    for __ in range(max_length):
        probs = next_distribution(model, current)
        threshold = rng.random()
        cumulative = 0.0
        token_id = model.eos_id
        for tid, p in enumerate(probs):
            cumulative += float(p)
            if threshold <= cumulative:
                token_id = tid
                break
        if token_id == model.eos_id:
            break
        name = model.token_name(token_id)
        chain.append(name)
        current = current.advance(name)
    return chain


def score_candidates(model: ChainLanguageModel, state: GenerationState,
                     truths: Sequence[Chain], rollouts: int = 4,
                     alpha: float = 1.0, max_length: int = 8,
                     rng: random.Random | None = None,
                     greedy_anchor: bool = True) -> dict[str, float]:
    """Best rollout loss per candidate next API (lower is better)."""
    rng = rng or random.Random(0)
    prefix = list(state.prefix)
    scores: dict[str, float] = {}
    for token_id in candidate_ids(model, state):
        name = model.token_name(token_id)
        if token_id == model.eos_id:
            scores[name] = min_matching_loss(prefix, truths, alpha)
            continue
        advanced = state.advance(name)
        remaining = max_length - len(prefix) - 1
        best = float("inf")
        completions: list[list[str]] = [[]]
        if remaining > 0:
            if greedy_anchor:
                completions.append(greedy_decode(model, advanced,
                                                 max_length=remaining))
            for __ in range(rollouts):
                completions.append(sample_decode(
                    model, advanced, max_length=remaining, rng=rng))
        for completion in completions:
            full = prefix + [name] + completion
            best = min(best, min_matching_loss(full, truths, alpha))
            if best == 0.0:
                break
        scores[name] = best
    return scores


def rollout_decode(model: ChainLanguageModel, state: GenerationState,
                   truths: Sequence[Chain], rollouts: int = 4,
                   alpha: float = 1.0, max_length: int = 8,
                   rng: random.Random | None = None,
                   greedy_anchor: bool = True) -> list[str]:
    """Extend by the best-scored candidate until EOS wins or the cap."""
    if max_length < 1:
        raise ModelError("max_length must be >= 1")
    rng = rng or random.Random(0)
    current = state
    chain: list[str] = []
    for __ in range(max_length):
        scores = score_candidates(model, current, truths, rollouts=rollouts,
                                  alpha=alpha, max_length=max_length,
                                  rng=rng, greedy_anchor=greedy_anchor)
        best_name = min(
            scores,
            key=lambda name: (scores[name], 0 if name == "<eos>" else 1,
                              name))
        if best_name == "<eos>":
            break
        chain.append(best_name)
        current = current.advance(best_name)
    return chain
