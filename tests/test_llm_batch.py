"""Batched decode kernels vs their scalar references.

The batched model surface (``greedy_decode_batch``, and the
``BatchScorer`` behind it and beam search) must make the *same decoding
decisions* as the scalar path kept in ``tests/decode_oracle.py`` —
these tests pin that down with property-based state generation, a
10-step beam regression against an independent reference
implementation, and the masked-token expansion rule.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.llm import (
    BatchScorer,
    ChainLanguageModel,
    TrainingExample,
    beam_decode,
    greedy_decode_batch,
)
from repro.llm.chain_model import GenerationState

from . import decode_oracle as oracle

APIS = ["load_graph", "count_nodes", "count_edges", "pagerank",
        "find_communities", "shortest_path", "visualize", "report"]

PROMPTS = [
    "how many people are in this network",
    "who is the most influential node",
    "find tightly knit groups",
    "shortest route between two members",
    "draw the graph and summarize it",
    "count all the relationships",
]


def _state(text, retrieved=(), prefix=(), allowed=(), graph_tokens=()):
    return GenerationState(prompt_text=text, retrieved=tuple(retrieved),
                           prefix=tuple(prefix), allowed=tuple(allowed),
                           graph_tokens=tuple(graph_tokens))


@pytest.fixture(scope="module")
def trained_model():
    """A model with non-trivial weights (a few SGD epochs)."""
    model = ChainLanguageModel(api_names=APIS, seed=3)
    examples = [
        TrainingExample(question=PROMPTS[0],
                        target_chains=(("load_graph", "count_nodes"),)),
        TrainingExample(question=PROMPTS[1],
                        target_chains=(("load_graph", "pagerank",
                                        "report"),)),
        TrainingExample(question=PROMPTS[2],
                        target_chains=(("load_graph", "find_communities",
                                        "visualize"),)),
        TrainingExample(question=PROMPTS[3],
                        target_chains=(("load_graph", "shortest_path"),)),
    ]
    for __ in range(8):
        for example in examples:
            state = example.state()
            for target in example.target_chains[0] + ("<eos>",):
                model.train_step(state, target)
                if target != "<eos>":
                    state = state.advance(target)
    return model


# ---------------------------------------------------------------------------
# BatchScorer.distributions == the oracle's per-state next_distribution
# ---------------------------------------------------------------------------

subsets = st.lists(st.sampled_from(APIS), unique=True, max_size=5)


def _assert_rows_match_scalar(model, probs, states):
    assert probs.shape == (len(states), model.vocab_size)
    for row, state in enumerate(states):
        scalar = oracle.next_distribution(model, state)
        np.testing.assert_allclose(probs[row], scalar,
                                   rtol=1e-12, atol=1e-15)
        # the decisions decoding actually takes must be identical
        assert int(np.argmax(probs[row])) == int(np.argmax(scalar))
        # masked (disallowed) candidates are exactly zero in both
        assert np.array_equal(probs[row] == 0.0, scalar == 0.0)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(texts=st.lists(st.sampled_from(PROMPTS), min_size=1, max_size=6),
       retrieved=subsets, allowed=subsets,
       prefix=st.lists(st.sampled_from(APIS), max_size=3),
       seed=st.integers(0, 3))
def test_batch_distribution_matches_scalar(texts, retrieved, allowed,
                                           prefix, seed):
    model = ChainLanguageModel(api_names=APIS, seed=seed)
    lanes = [_state(text, retrieved=retrieved, allowed=allowed,
                    graph_tokens=(("nodes", len(text)),))
             for text in texts]
    scorer = BatchScorer(model, lanes)
    # every lane advanced by the same prefix, as a decode would
    states = lanes
    for name in prefix:
        states = [state.advance(name) for state in states]
    probs = scorer.distributions(states, list(range(len(states))))
    _assert_rows_match_scalar(model, probs, states)


def test_batch_distribution_empty_input():
    model = ChainLanguageModel(api_names=APIS, seed=0)
    out = BatchScorer(model, []).distributions([], [])
    assert out.shape == (0, model.vocab_size)


def test_batch_scorer_matches_scalar(trained_model):
    states = [_state(p, retrieved=("pagerank", "report"))
              for p in PROMPTS]
    scorer = BatchScorer(trained_model, states)
    probs = scorer.distributions(states, list(range(len(states))))
    _assert_rows_match_scalar(trained_model, probs, states)


# ---------------------------------------------------------------------------
# greedy_decode_batch == the oracle's per-state greedy_decode
# ---------------------------------------------------------------------------

def test_greedy_batch_matches_scalar(trained_model):
    states = [_state(text, retrieved=retrieved, allowed=allowed)
              for text in PROMPTS
              for retrieved in ((), ("load_graph", "pagerank", "report"))
              for allowed in ((), tuple(APIS[:4]))]
    scalar = [oracle.greedy_decode(trained_model, s, max_length=6)
              for s in states]
    batched = greedy_decode_batch(trained_model, states, max_length=6)
    assert scalar == batched


def test_greedy_batch_singleton_and_empty(trained_model):
    assert greedy_decode_batch(trained_model, [], max_length=4) == []
    state = _state(PROMPTS[0])
    assert greedy_decode_batch(trained_model, [state], max_length=4) == [
        oracle.greedy_decode(trained_model, state, max_length=4)]


# ---------------------------------------------------------------------------
# beam search: 10-step regression vs an exact reference
# ---------------------------------------------------------------------------

def _reference_beam(model, state, beam_width, max_length):
    """Independent beam search carrying per-step log-prob lists.

    Totals are recomputed by a fresh left-to-right sum each step, so a
    production implementation that accumulates drift (e.g. one that
    reconstructs the total from the length-normalized score) diverges
    from it over long decodes.
    """
    beams = [((), state, [], False)]  # chain, state, logps, finished
    tie = 0
    scored = [(0.0, 0, beams[0])]
    for __ in range(max_length + 1):
        if all(entry[2][3] for entry in scored):
            break
        expanded = []
        tie_local = tie
        for score, t, (chain, current, logps, finished) in scored:
            if finished:
                expanded.append((score, t, (chain, current, logps, True)))
                continue
            probs = oracle.next_distribution(model, current)
            order = np.argsort(probs)[::-1][:beam_width]
            for token_id in order:
                p = float(probs[token_id])
                if p == 0.0:
                    continue
                logp = float(np.log(p))
                tie_local += 1
                new_logps = logps + [logp]
                total = 0.0
                for value in new_logps:  # fresh left-to-right sum
                    total += value
                if int(token_id) == model.eos_id:
                    new_score = -total / (len(chain) + 2)
                    expanded.append((new_score, tie_local,
                                     (chain, current, new_logps, True)))
                else:
                    name = model.token_name(int(token_id))
                    new_chain = chain + (name,)
                    new_score = -total / (len(new_chain) + 1)
                    expanded.append((new_score, tie_local,
                                     (new_chain, current.advance(name),
                                      new_logps, False)))
        tie = tie_local
        scored = sorted(expanded)[:beam_width]
    finished = [e for e in scored if e[2][3]] or scored
    best = min(finished)
    return list(best[2][0])


@pytest.mark.parametrize("beam_width", [1, 2, 4])
def test_beam_matches_reference_10_steps(trained_model, beam_width):
    for text in PROMPTS:
        state = _state(text)
        got = beam_decode(trained_model, state, beam_width=beam_width,
                          max_length=10)
        want = _reference_beam(trained_model, state, beam_width, 10)
        assert got == want, (text, beam_width)


def test_beam_long_chain_no_score_drift(trained_model):
    # force long chains: EOS only competitive at max length
    state = _state("walk through every analysis step",
                   allowed=tuple(APIS))
    got = beam_decode(trained_model, state, beam_width=3, max_length=10)
    want = _reference_beam(trained_model, state, 3, 10)
    assert got == want


# ---------------------------------------------------------------------------
# masked tokens are never expanded
# ---------------------------------------------------------------------------

def test_beam_never_expands_masked_tokens(trained_model):
    allowed = ("load_graph", "count_nodes")
    state = _state("count the nodes please", allowed=allowed)
    # beam_width far larger than the candidate set: a buggy expansion
    # would pull in probability-0.0 (masked) tokens
    chain = beam_decode(trained_model, state, beam_width=16,
                        max_length=10)
    assert set(chain) <= set(allowed)


def test_beam_masked_probability_exactly_zero(trained_model):
    state = _state("count the nodes please",
                   allowed=("load_graph", "count_nodes"))
    probs = trained_model.next_distribution(state)
    allowed_ids = {trained_model._vocab["load_graph"],
                   trained_model._vocab["count_nodes"],
                   trained_model.eos_id}
    for token_id, p in enumerate(probs):
        if token_id not in allowed_ids:
            assert p == 0.0
    assert math.isclose(float(probs.sum()), 1.0, rel_tol=1e-12)
