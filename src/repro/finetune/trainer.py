"""Finetuning loops: token-level baseline vs matching + rollout objective.

``objective="token"`` is plain teacher forcing on the first ground-truth
chain (the baseline E8 compares against).  ``objective="matching"`` is
the paper's scheme: at each step the search-based prediction scores
every candidate by rollout + node matching-based loss, the scores become
a soft target distribution, and the model takes a weighted SGD step —
so supervision follows whichever *equivalent* chain the model is closest
to, instead of force-feeding one arbitrary ordering.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Sequence

from ..config import FinetuneConfig
from ..errors import FinetuneError
from ..llm.chain_model import ChainLanguageModel, TrainingExample
from .metrics import ChainMetrics, evaluate_model
from .rollout import score_candidates

OBJECTIVES = ("token", "matching")


@dataclass
class FinetuneReport:
    """Training curve + final evaluation of one finetuning run."""

    objective: str
    epochs: int
    train_losses: list[float] = field(default_factory=list)
    eval_history: list[ChainMetrics] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def final_metrics(self) -> ChainMetrics | None:
        return self.eval_history[-1] if self.eval_history else None


class Finetuner:
    """Drives finetuning of a :class:`ChainLanguageModel`.

    Example::

        tuner = Finetuner(model, FinetuneConfig(rollouts=4))
        report = tuner.train(train_examples, eval_examples,
                             objective="matching")
    """

    def __init__(self, model: ChainLanguageModel,
                 config: FinetuneConfig | None = None,
                 seed: int = 0) -> None:
        self.model = model
        self.config = config or FinetuneConfig()
        self.seed = seed

    # ------------------------------------------------------------------
    def train(self, train_examples: Sequence[TrainingExample],
              eval_examples: Sequence[TrainingExample] = (),
              objective: str = "matching") -> FinetuneReport:
        """Run ``config.epochs`` passes over the corpus."""
        if objective not in OBJECTIVES:
            raise FinetuneError(
                f"objective must be one of {OBJECTIVES}, got {objective!r}")
        if not train_examples:
            raise FinetuneError("no training examples")
        rng = random.Random(self.seed)
        report = FinetuneReport(objective=objective,
                                epochs=self.config.epochs)
        start = time.perf_counter()
        # a token example's prefix-independent part is resolved once
        order = ([self.model.compile_chain(example)
                  for example in train_examples]
                 if objective == "token" else list(train_examples))
        for epoch in range(self.config.epochs):
            rng.shuffle(order)
            epoch_loss = 0.0
            for item in order:
                if objective == "token":
                    epoch_loss += self.model.train_compiled(
                        item, self.config.learning_rate)
                else:
                    epoch_loss += self._matching_step(item, rng)
            report.train_losses.append(epoch_loss / len(order))
            if eval_examples:
                report.eval_history.append(
                    evaluate_model(self.model, eval_examples,
                                   alpha=self.config.alpha))
        report.seconds = time.perf_counter() - start
        return report

    # ------------------------------------------------------------------
    def _matching_step(self, example: TrainingExample,
                       rng: random.Random) -> float:
        """One example under the matching + rollout objective."""
        config = self.config
        state = example.state()
        max_length = max(len(chain) for chain in example.target_chains) + 2
        total_loss = 0.0
        steps = 0
        for __ in range(max_length):
            scores = score_candidates(
                self.model, state, example.target_chains,
                rollouts=config.rollouts, alpha=config.alpha,
                max_length=max_length, rng=rng)
            weights = _scores_to_weights(scores)
            total_loss += self.model.train_weighted_step(
                state, weights, config.learning_rate)
            steps += 1
            best = min(scores, key=lambda name: (scores[name],
                                                 0 if name == "<eos>" else 1,
                                                 name))
            if best == "<eos>":
                break
            state = state.advance(best)
        return total_loss / max(steps, 1)


def _scores_to_weights(scores: dict[str, float],
                       sharpness: float = 4.0) -> dict[str, float]:
    """Soft-min over rollout losses -> target distribution."""
    best = min(scores.values())
    weights = {name: math.exp(-sharpness * (loss - best))
               for name, loss in scores.items()}
    total = sum(weights.values())
    return {name: weight / total for name, weight in weights.items()}
