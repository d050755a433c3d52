"""The node matching-based loss function (paper Def. 1).

Given a generated chain ``C`` and a ground-truth chain ``C'``, the loss
is ``min_M  X + alpha * Y`` where

* ``X`` is the graph edit distance between the chains under matching
  ``M`` (node substitutions by API-name mismatch, node deletions and
  insertions, and the edge mismatches ``M`` induces on the chain DAGs);
* ``Y = sum_i (1 - sum_k M_ik)^2 + sum_k (1 - sum_i M_ik)^2`` penalizes
  unmatched nodes, encoding the one-to-one matching property.

For binary matchings produced by the Hungarian algorithm, ``Y`` equals
the number of unmatched nodes on both sides.  The minimization over
``M`` is solved by the Hungarian algorithm on a substitution-cost matrix
(API-name mismatch + a small positional tie-breaker), which is the
classical bipartite relaxation of chain GED — exact for the linear
chains ChatGraph generates in practice.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..algorithms.matching import hungarian

Chain = Sequence[str]

#: Positional tie-break weight; small enough never to flip a label match.
_POSITION_WEIGHT = 0.01


def _matching(generated: Chain, truth: Chain) -> list[int | None]:
    """Min-cost one-to-one matching: index in truth per generated node."""
    n, m = len(generated), len(truth)
    if n == 0 or m == 0:
        return [None] * n
    cost = [[(0.0 if generated[i] == truth[j] else 1.0)
             + _POSITION_WEIGHT * abs(i - j)
             for j in range(m)] for i in range(n)]
    assignment, __ = hungarian(cost)
    return [j if j >= 0 else None for j in assignment]


def node_matching_loss(generated: Chain, truth: Chain,
                       alpha: float = 1.0) -> float:
    """Def. 1 loss between one generated chain and one ground truth.

    The minimization over matchings is solved by the Hungarian bipartite
    relaxation (node costs only); the edge term is charged on the chosen
    matching afterwards.  Because optimal node matchings can be
    non-unique, the relaxation is evaluated in both directions and the
    smaller value returned, which keeps the loss symmetric.
    """
    loss_forward = _one_sided_loss(generated, truth, alpha)
    loss_backward = _one_sided_loss(truth, generated, alpha)
    return min(loss_forward, loss_backward)


def _one_sided_loss(generated: Chain, truth: Chain, alpha: float) -> float:
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    generated = list(generated)
    truth = list(truth)
    assignment = _matching(generated, truth)

    # X: edit cost induced by the matching
    x = 0.0
    matched_truth: set[int] = set()
    for i, j in enumerate(assignment):
        if j is None:
            x += 1.0  # node deletion
        else:
            matched_truth.add(j)
            if generated[i] != truth[j]:
                x += 1.0  # substitution
    x += len(truth) - len(matched_truth)  # node insertions
    # edge term: chain edges (i, i+1); a generated edge survives iff the
    # matched truth indexes are also consecutive (in order)
    gen_edges = 0
    for i in range(len(generated) - 1):
        a, b = assignment[i], assignment[i + 1]
        if a is not None and b is not None and b == a + 1:
            gen_edges += 1
    x += (len(generated) - 1 if generated else 0) - gen_edges  # deletions
    x += (len(truth) - 1 if truth else 0) - gen_edges           # insertions

    # Y: one-to-one regularizer (binary M -> count of unmatched nodes)
    unmatched_generated = sum(1 for j in assignment if j is None)
    unmatched_truth = len(truth) - len(matched_truth)
    y = float(unmatched_generated + unmatched_truth)
    return x + alpha * y


def min_matching_loss(generated: Chain, truths: Sequence[Chain],
                      alpha: float = 1.0) -> float:
    """Minimum Def. 1 loss over several equivalent ground truths."""
    if not truths:
        raise ValueError("need at least one ground-truth chain")
    return min(node_matching_loss(generated, truth, alpha)
               for truth in truths)


def memoised_matching_loss() -> Callable[[Chain, Sequence[Chain], float],
                                          float]:
    """:func:`min_matching_loss` with a memo of its own.

    The matching objective re-scores the same (chain, truths) pairs many
    times over one training run (the rollouts of neighbouring candidates
    and steps complete to the same chains), so :meth:`Finetuner.train`
    takes one per call.  ``truths`` must be hashable, as a
    :class:`~repro.llm.chain_model.TrainingExample`'s ``target_chains``
    tuple is.
    """
    memo: dict[tuple[tuple[str, ...], Sequence[Chain], float], float] = {}

    def loss(generated: Chain, truths: Sequence[Chain],
             alpha: float = 1.0) -> float:
        key = (tuple(generated), truths, alpha)
        value = memo.get(key)
        if value is None:
            value = memo[key] = min_matching_loss(generated, truths, alpha)
        return value

    return loss


def chain_ged(generated: Chain, truth: Chain) -> float:
    """Plain chain GED (the alpha = 0 special case of the loss)."""
    return node_matching_loss(generated, truth, alpha=0.0)
