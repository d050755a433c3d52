"""E12 — Sec. II-B: the graph-aware LLM (graph conditioning ablation).

The paper's second module makes the LLM "comprehend graphs" by feeding
it sequentialized paths (and super-graph paths).  The clean test:
*ambiguous* prompts whose text is identical across graph kinds ("write a
brief report for G") with kind-specific gold chains and kind-independent
candidate sets — only the sequentializer's tokens can tell the model
whether G is a social network, a molecule or a knowledge graph.

Ablations: graph tokens on/off at inference, and single- vs multi-level
sequences at training time.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.apis import default_registry
from repro.config import FinetuneConfig
from repro.finetune import CorpusSpec, Finetuner, build_corpus, evaluate_model
from repro.llm import build_model

CORPUS = 500
EPOCHS = 5


def ambiguous_split(registry, spec):
    """Corpus + its ambiguous-only test slice."""
    train, test = build_corpus(registry, spec)
    ambiguous = [example for example in test
                 if len(example.allowed) == len(registry.names())]
    return train, test, ambiguous


@pytest.fixture(scope="module")
def trained():
    registry = default_registry()
    spec = CorpusSpec(n_examples=CORPUS, seed=0, ambiguous_fraction=0.5)
    train, test, ambiguous = ambiguous_split(registry, spec)
    model = build_model("chatglm-sim", registry.names(), seed=0)
    Finetuner(model, FinetuneConfig(epochs=EPOCHS)).train(
        train, objective="token")
    return registry, model, test, ambiguous


def test_graph_tokens_disambiguate(trained, report_table, benchmark):
    registry, model, test, ambiguous = trained
    with_tokens = evaluate_model(model, ambiguous)
    stripped = [dataclasses.replace(example, graph_tokens=())
                for example in ambiguous]
    without_tokens = evaluate_model(model, stripped)
    report_table(
        "E12-graph-aware-ablation",
        f"ambiguous prompts (same text, different graph kinds): "
        f"{len(ambiguous)}",
        f"exact match WITH sequentialized-graph tokens:    "
        f"{with_tokens.exact_match:.3f}",
        f"exact match WITHOUT graph tokens (text only):    "
        f"{without_tokens.exact_match:.3f}",
        f"delta: "
        f"{with_tokens.exact_match - without_tokens.exact_match:+.3f}",
    )
    assert with_tokens.exact_match > 0.8
    assert with_tokens.exact_match > without_tokens.exact_match + 0.3

    benchmark(lambda: evaluate_model(model, ambiguous[:15]))


def test_unambiguous_prompts_unaffected(trained, report_table, benchmark):
    """Sanity: plain prompts stay accurate with and without tokens."""
    registry, model, test, ambiguous = trained
    plain = [example for example in test if example not in ambiguous]
    with_tokens = evaluate_model(model, plain)
    stripped = [dataclasses.replace(example, graph_tokens=())
                for example in plain]
    without_tokens = evaluate_model(model, stripped)
    report_table(
        "E12-graph-aware-plain",
        f"unambiguous prompts: {len(plain)}",
        f"exact match with tokens:    {with_tokens.exact_match:.3f}",
        f"exact match without tokens: {without_tokens.exact_match:.3f}",
    )
    # with half the corpus spent on ambiguous prompts, the ~29 plain
    # templates are data-starved; the sanity claim is *parity* — graph
    # tokens neither carry nor hurt text-determined chains
    assert abs(with_tokens.exact_match
               - without_tokens.exact_match) < 0.15
    assert with_tokens.exact_match > 0.5

    benchmark(lambda: evaluate_model(model, plain[:15]))


#: CorpusSpec seeds the multi-level ablation sweeps; seed 0 is the one
#: the single-seed table and its assertions read.
ABLATION_SEEDS = range(20)


def multi_level_exact_match(registry, seed, multi_level):
    """Ambiguous exact match of a model trained on one sequence mode."""
    spec = CorpusSpec(n_examples=CORPUS, seed=seed, ambiguous_fraction=0.5,
                      multi_level=multi_level)
    train, __, ambiguous = ambiguous_split(registry, spec)
    model = build_model("chatglm-sim", registry.names(), seed=0)
    Finetuner(model, FinetuneConfig(epochs=EPOCHS)).train(
        train, objective="token")
    return evaluate_model(model, ambiguous).exact_match


def test_multi_level_ablation(report_table, benchmark):
    """Training with super-graph tokens vs paths-only tokens, per seed."""
    registry = default_registry()
    scores = {seed: {multi_level: multi_level_exact_match(
                         registry, seed, multi_level)
                     for multi_level in (True, False)}
              for seed in ABLATION_SEEDS}
    report_table(
        "E12-graph-aware-multilevel",
        f"ambiguous exact match, multi-level sequences:  "
        f"{scores[0][True]:.3f}",
        f"ambiguous exact match, paths-only sequences:   "
        f"{scores[0][False]:.3f}",
    )
    lines = [f"ambiguous exact match per CorpusSpec seed "
             f"({CORPUS} examples, {EPOCHS} epochs, token objective)",
             "seed  multi-level  paths-only  delta"]
    for seed, row in scores.items():
        lines.append(f"{seed:>4}  {row[True]:>11.3f}  {row[False]:>10.3f}  "
                     f"{row[True] - row[False]:>+5.3f}")
    for label, pick in (("mean", lambda v: sum(v) / len(v)),
                        ("min", min), ("max", max)):
        multi = pick([row[True] for row in scores.values()])
        paths = pick([row[False] for row in scores.values()])
        lines.append(f"{label:>4}  {multi:>11.3f}  {paths:>10.3f}")
    worse = sum(row[True] < row[False] for row in scores.values())
    lines.append(f"multi-level below paths-only on {worse} of "
                 f"{len(scores)} seeds")
    report_table("E12-graph-aware-multilevel-seeds", *lines)
    # both configurations must beat the text-only floor decisively
    assert scores[0][True] > 0.8
    assert scores[0][False] > 0.6

    spec = CorpusSpec(n_examples=100, seed=1, ambiguous_fraction=0.5)
    benchmark(lambda: build_corpus(registry, spec))
