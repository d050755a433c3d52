"""Batched decode kernels vs their scalar references.

The batched model surface (``greedy_decode_batch`` and the
``BatchScorer`` behind it) must make the *same decoding decisions* as
the scalar path kept in ``tests/decode_oracle.py`` — these tests pin
that down with property-based state generation, and check that masked
candidates get probability exactly zero.
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
# masked tokens get probability exactly zero
# ---------------------------------------------------------------------------

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
