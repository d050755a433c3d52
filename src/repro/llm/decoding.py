"""Chain decoding: the greedy decoder and the rollout sampler.

The paper has two decoders.  Greedy decoding runs at inference: the
chat pipeline decodes every request through :func:`greedy_decode_batch`.
The search-based prediction (random rollouts scored by the node
matching-based loss) is the *training-time* decoder and lives in
:mod:`repro.finetune.rollout`; it draws its random completions with
:func:`sample_chain`.

Both score through a :class:`~repro.llm.chain_model.BatchScorer`:
:func:`greedy_lanes` advances a fleet in lockstep (one lane per state in
:func:`greedy_decode_batch`, a fleet of one in :func:`greedy_decode`),
and :func:`sample_chain` samples from a lane.  The rollout search reuses
both on one scorer per step.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..errors import ModelError
from .chain_model import BatchScorer, ChainLanguageModel, GenerationState


def greedy_decode(model: ChainLanguageModel, state: GenerationState,
                  max_length: int = 8) -> list[str]:
    """Always take the argmax next API; stop at EOS or ``max_length``."""
    return greedy_decode_batch(model, [state], max_length)[0]


def greedy_decode_batch(model: ChainLanguageModel,
                        states: Sequence[GenerationState],
                        max_length: int = 8) -> list[list[str]]:
    """Greedy-decode a fleet of states in lockstep, one lane each."""
    states = list(states)
    return greedy_lanes(BatchScorer(model, states), states,
                        range(len(states)), max_length)


def greedy_lanes(scorer: BatchScorer, states: Sequence[GenerationState],
                 lanes: Sequence[int], max_length: int) -> list[list[str]]:
    """Greedy-decode ``states[i]`` (a descendant of lane ``lanes[i]``)
    in lockstep: each step scores every still-decoding state with one
    batched argmax, and states that emit EOS drop out of the batch."""
    if max_length < 1:
        raise ModelError("max_length must be >= 1")
    model = scorer.model
    chains: list[list[str]] = [[] for __ in states]
    current = list(states)
    active = list(range(len(current)))
    for __ in range(max_length):
        if not active:
            break
        token_ids = scorer.argmax_tokens(
            [current[row] for row in active], [lanes[row] for row in active])
        still_active: list[int] = []
        for token_id, row in zip(token_ids.tolist(), active):
            if token_id == model.eos_id:
                continue
            name = model.token_name(token_id)
            chains[row].append(name)
            current[row] = current[row].advance(name)
            still_active.append(row)
        active = still_active
    return chains


def sample_chain(scorer: BatchScorer, state: GenerationState,
                 max_length: int, rng: random.Random) -> list[str]:
    """Sample a chain from ``state`` (a descendant of lane 0): each step
    draws one ``rng.random()`` threshold against the cumulative
    next-token distribution."""
    model = scorer.model
    chain: list[str] = []
    current = state
    for __ in range(max_length):
        probs = scorer.distributions([current], [0])[0]
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
