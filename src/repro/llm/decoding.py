"""Chain decoding strategies: greedy, beam and temperature sampling.

The paper's search-based prediction (random rollouts scored by the node
matching-based loss) is the *training-time* decoder and lives in
:mod:`repro.finetune.rollout`; the strategies here are the inference-
time decoders the chat pipeline uses.

Every decoder scores through a :class:`~repro.llm.chain_model.BatchScorer`:
:func:`greedy_lanes` advances a fleet in lockstep (one lane per state in
:func:`greedy_decode_batch`, a fleet of one in :func:`greedy_decode`),
:func:`beam_decode` expands all live beams of a step through one call,
and :func:`sample_chain` samples from a lane.  The rollout search reuses
:func:`greedy_lanes` and :func:`sample_chain` on one scorer per step.
"""

from __future__ import annotations

import heapq
import random
from typing import Sequence

import numpy as np

from ..errors import ModelError
from .chain_model import BatchScorer, ChainLanguageModel, GenerationState


def greedy_decode(model: ChainLanguageModel, state: GenerationState,
                  max_length: int = 8) -> list[str]:
    """Always take the argmax next API; stop at EOS or ``max_length``."""
    return greedy_decode_batch(model, [state], max_length)[0]


#: One beam hypothesis: (neg mean log-prob, tiebreak, raw total
#: log-prob, chain, state, finished).  The *raw* cumulative log-prob is
#: carried alongside the length-normalized ranking score instead of
#: being re-derived from it (``-score * length`` reconstruction drifts
#: one rounding per step and compounds over long beams).
_Beam = tuple[float, int, float, tuple[str, ...], GenerationState, bool]


def beam_decode(model: ChainLanguageModel, state: GenerationState,
                beam_width: int = 4, max_length: int = 8) -> list[str]:
    """Length-normalized beam search; returns the best finished chain.

    All live beams of a step are scored through one batched model call
    (they share ``state``'s static features, so the per-step cost is a
    single ``(n_live, vocab)`` matmul).  Candidates whose probability
    is exactly ``0.0`` are disallowed (masked) tokens and are never
    expanded.
    """
    if beam_width < 1:
        raise ModelError("beam_width must be >= 1")
    scorer = BatchScorer(model, [state])
    beams: list[_Beam] = [(0.0, 0, 0.0, (), state, False)]
    tie = 0
    for __ in range(max_length + 1):
        live = [beam for beam in beams if not beam[5]]
        if not live:
            break
        probs = scorer.distributions([beam[4] for beam in live],
                                     [0] * len(live))
        expanded: list[_Beam] = [beam for beam in beams if beam[5]]
        for row, (__score, __tie, total_logp, chain, current,
                  __fin) in enumerate(live):
            row_probs = probs[row]
            candidate_ids = np.argsort(row_probs)[::-1][:beam_width]
            for token_id in candidate_ids:
                p = float(row_probs[token_id])
                if p == 0.0:
                    continue  # masked (disallowed) token
                logp = float(np.log(p))
                tie += 1
                new_logp = total_logp + logp
                if int(token_id) == model.eos_id:
                    new_score = -new_logp / (len(chain) + 2)
                    expanded.append((new_score, tie, new_logp, chain,
                                     current, True))
                else:
                    name = model.token_name(int(token_id))
                    new_chain = chain + (name,)
                    new_score = -new_logp / (len(new_chain) + 1)
                    expanded.append((new_score, tie, new_logp, new_chain,
                                     current.advance(name), False))
        beams = heapq.nsmallest(beam_width, expanded)
    finished_beams = [beam for beam in beams if beam[5]] or beams
    best = min(finished_beams)
    return list(best[3])


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


def sample_decode(model: ChainLanguageModel, state: GenerationState,
                  temperature: float = 1.0, max_length: int = 8,
                  rng: random.Random | None = None) -> list[str]:
    """Sample a chain token by token."""
    return sample_chain(BatchScorer(model, [state]), state, temperature,
                        max_length, rng or random.Random(0))


def sample_chain(scorer: BatchScorer, state: GenerationState,
                 temperature: float, max_length: int,
                 rng: random.Random) -> list[str]:
    """Sample a chain from ``state`` (a descendant of lane 0): each step
    draws one ``rng.random()`` threshold against the cumulative
    next-token distribution."""
    model = scorer.model
    chain: list[str] = []
    current = state
    for __ in range(max_length):
        probs = scorer.distributions([current], [0], temperature)[0]
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
