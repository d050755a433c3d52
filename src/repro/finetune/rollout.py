"""Search-based prediction with random rollouts (paper Sec. II-C).

Chain generation extends a partial chain one API at a time.  For each
candidate next API ``a`` we run ``r`` random rollouts: complete
``C_p + {a}`` to a full chain by sampling from the model, take the minimum
node matching-based loss of each completion against the ground-truth
chains, and keep the best (the candidate's score).  The candidate with
the lowest best-loss is appended.  With ``r = 0`` the candidate is
scored by the loss of the greedy completion — the degenerate baseline
the E9 ablation compares against.

Each step scores through one :class:`~repro.llm.chain_model.BatchScorer`
lane built from its state (the scorer snapshots the weights, so it
never outlives the step): the greedy anchors of all candidates run as
one lockstep fleet, the random rollouts one after another in candidate
order, which keeps the ``rng`` draw stream of sampling each in turn.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from ..errors import ModelError
from ..llm.chain_model import (
    EOS,
    BatchScorer,
    ChainLanguageModel,
    GenerationState,
)
from ..llm.decoding import greedy_lanes, sample_chain
from .losses import min_matching_loss

Chain = Sequence[str]


def score_candidates(model: ChainLanguageModel, state: GenerationState,
                     truths: Sequence[Chain], rollouts: int = 4,
                     alpha: float = 1.0, max_length: int = 8,
                     rng: random.Random | None = None,
                     greedy_anchor: bool = True,
                     loss: Callable[[Chain, Sequence[Chain], float], float]
                     = min_matching_loss) -> dict[str, float]:
    """Best rollout loss per candidate next API (lower is better).

    EOS is scored too (as the loss of stopping here), under the key
    ``"<eos>"``.  Each candidate is scored by the minimum loss over its
    completions: the stop-now completion, optionally the model's greedy
    completion (``greedy_anchor``, a stabilizer the trainer keeps on),
    and ``rollouts`` random completions — the paper's pure scheme is
    ``greedy_anchor=False`` with random rollouts only.  ``loss`` is the
    Def. 1 loss (the trainer passes a memoised one).
    """
    rng = rng or random.Random(0)
    scorer = BatchScorer(model, [state])
    prefix = list(state.prefix)
    remaining = max_length - len(prefix) - 1
    names = [model.token_name(token_id)
             for token_id in scorer.candidates(state)
             if token_id != model.eos_id]
    advanced = [state.advance(name) for name in names]
    anchors = (greedy_lanes(scorer, advanced, [0] * len(advanced), remaining)
               if greedy_anchor and remaining > 0 else [])
    scores: dict[str, float] = {}
    for row, (name, current) in enumerate(zip(names, advanced)):
        best = float("inf")
        completions: list[list[str]] = [[]]
        if remaining > 0:
            if greedy_anchor:
                completions.append(anchors[row])
            for __ in range(rollouts):
                completions.append(sample_chain(scorer, current, remaining,
                                                rng))
        for completion in completions:
            full = prefix + [name] + completion
            best = min(best, loss(full, truths, alpha))
            if best == 0.0:
                break
        scores[name] = best
    scores[EOS] = loss(prefix, truths, alpha)
    return scores


def rollout_decode(model: ChainLanguageModel, state: GenerationState,
                   truths: Sequence[Chain], rollouts: int = 4,
                   alpha: float = 1.0, max_length: int = 8,
                   rng: random.Random | None = None,
                   greedy_anchor: bool = True) -> list[str]:
    """Full search-based prediction: extend until EOS wins or the cap.

    Requires ground-truth chains, so this is the *training-time* decoder
    (and the evaluation oracle for the E9 ablation).
    """
    if max_length < 1:
        raise ModelError("max_length must be >= 1")
    rng = rng or random.Random(0)
    current = state
    chain: list[str] = []
    for __ in range(max_length):
        scores = score_candidates(model, current, truths, rollouts=rollouts,
                                  alpha=alpha, max_length=max_length,
                                  rng=rng, greedy_anchor=greedy_anchor)
        # lowest loss wins; EOS wins ties (prefer stopping when equal)
        best_name = min(
            scores,
            key=lambda name: (scores[name], 0 if name == "<eos>" else 1,
                              name))
        if best_name == "<eos>":
            break
        chain.append(best_name)
        current = current.advance(best_name)
    return chain
