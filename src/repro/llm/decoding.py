"""Chain decoding strategies: greedy, beam and temperature sampling.

The paper's search-based prediction (random rollouts scored by the node
matching-based loss) is the *training-time* decoder and lives in
:mod:`repro.finetune.rollout`; the strategies here are the inference-
time decoders the chat pipeline uses.

Two execution paths share one model:

* the scalar path (:func:`greedy_decode`, :func:`sample_decode`) calls
  :meth:`~repro.llm.chain_model.ChainLanguageModel.next_distribution`
  once per state per step;
* the batched path (:func:`greedy_decode_batch`, and
  :func:`beam_decode`, which expands all live beams per step through
  one call) scores whole fleets of states with a single matmul via
  :class:`~repro.llm.chain_model.BatchScorer`.
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
    if max_length < 1:
        raise ModelError("max_length must be >= 1")
    chain: list[str] = []
    current = state
    for __ in range(max_length):
        probs = model.next_distribution(current)
        token_id = int(np.argmax(probs))
        if token_id == model.eos_id:
            break
        name = model.token_name(token_id)
        chain.append(name)
        current = current.advance(name)
    return chain


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
    """Greedy-decode a fleet of states in lockstep.

    Equivalent to ``[greedy_decode(model, s, max_length) for s in
    states]`` but each step scores every still-decoding state with one
    batched model call.  Lanes that emit EOS drop out of the batch.
    """
    if max_length < 1:
        raise ModelError("max_length must be >= 1")
    states = list(states)
    scorer = BatchScorer(model, states)
    chains: list[list[str]] = [[] for __ in states]
    current = list(states)
    active = list(range(len(states)))
    for __ in range(max_length):
        if not active:
            break
        token_ids = scorer.argmax_tokens(
            [current[lane] for lane in active], active)
        still_active: list[int] = []
        for row, lane in enumerate(active):
            token_id = int(token_ids[row])
            if token_id == model.eos_id:
                continue
            name = model.token_name(token_id)
            chains[lane].append(name)
            current[lane] = current[lane].advance(name)
            still_active.append(lane)
        active = still_active
    return chains


def sample_decode(model: ChainLanguageModel, state: GenerationState,
                  temperature: float = 1.0, max_length: int = 8,
                  rng: random.Random | None = None) -> list[str]:
    """Sample a chain token by token (used for random rollouts)."""
    rng = rng or random.Random(0)
    chain: list[str] = []
    current = state
    for __ in range(max_length):
        probs = model.next_distribution(current, temperature=temperature)
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
