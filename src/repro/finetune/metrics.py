"""Chain-quality metrics for finetuning evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..llm.chain_model import ChainLanguageModel, TrainingExample
from ..llm.decoding import greedy_decode_batch
from .losses import min_matching_loss

Chain = Sequence[str]
Decoder = Callable[[ChainLanguageModel, TrainingExample], list[str]]


@dataclass(frozen=True)
class ChainMetrics:
    """Aggregate decode quality over an evaluation corpus."""

    n_examples: int
    #: Fraction decoding to *some* ground-truth chain exactly.
    exact_match: float
    #: Mean node matching-based loss against the closest ground truth.
    mean_matching_loss: float
    #: Fraction whose API *set* equals some ground truth's set.
    set_match: float
    #: Mean generated-chain length.
    mean_length: float

    def row(self) -> str:
        return (f"n={self.n_examples:<5} exact={self.exact_match:6.3f} "
                f"set={self.set_match:6.3f} "
                f"loss={self.mean_matching_loss:7.3f} "
                f"len={self.mean_length:5.2f}")


def evaluate_model(model: ChainLanguageModel,
                   examples: Sequence[TrainingExample],
                   decoder: Decoder | None = None,
                   alpha: float = 1.0) -> ChainMetrics:
    """Decode every example (by default greedy, as one lockstep fleet)
    and score against its ground-truth chains."""
    if not examples:
        raise ValueError("no evaluation examples")
    if decoder is None:
        chains = greedy_decode_batch(
            model, [example.state() for example in examples])
    else:
        chains = [decoder(model, example) for example in examples]
    exact = 0
    set_hits = 0
    losses = []
    lengths = []
    for example, generated in zip(examples, map(tuple, chains)):
        lengths.append(len(generated))
        if any(generated == tuple(truth)
               for truth in example.target_chains):
            exact += 1
        if any(set(generated) == set(truth)
               for truth in example.target_chains):
            set_hits += 1
        losses.append(min_matching_loss(generated, example.target_chains,
                                        alpha))
    n = len(examples)
    return ChainMetrics(
        n_examples=n,
        exact_match=exact / n,
        mean_matching_loss=sum(losses) / n,
        set_match=set_hits / n,
        mean_length=sum(lengths) / n,
    )
