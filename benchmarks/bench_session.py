"""E11 — Figs. 2-3: session semantics and configuration coverage.

Every parameter group the configuration screen exposes (Fig. 3) is
toggled and shown to change observable behaviour; the session round-trip
(Fig. 2's three panels) is exercised and timed.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro import ChatGraph, ChatGraphConfig, ChatSession
from repro.config import MODEL_PRESETS, LLMConfig, SequencerConfig
from repro.finetune import CorpusSpec
from repro.graphs import social_network
from repro.sequencer import GraphSequentializer


def test_config_parameter_effects(chatgraph, report_table, benchmark):
    graph = social_network(40, 4, seed=6)
    rows = []

    # retrieval.top_k_apis
    k2 = chatgraph.retriever.retrieve_names("find communities", k=2)
    k8 = chatgraph.retriever.retrieve_names("find communities", k=8)
    rows.append(f"retrieval.top_k_apis: k=2 -> {len(k2)} hits, "
                f"k=8 -> {len(k8)} hits")
    assert len(k2) == 2 and len(k8) == 8

    # retrieval.tau (index shape)
    from repro.ann import TauMGIndex
    data = np.random.default_rng(0).normal(size=(400, 16))
    edges = {tau: TauMGIndex(tau=tau).build(data).n_edges()
             for tau in (0.0, 0.1)}
    rows.append(f"retrieval.tau: edges tau=0.0 -> {edges[0.0]}, "
                f"tau=0.1 -> {edges[0.1]}")
    assert edges[0.1] >= edges[0.0]

    # sequencer.path_length and multi_level
    short = GraphSequentializer(
        SequencerConfig(path_length=1)).sequentialize(graph)
    deep = GraphSequentializer(
        SequencerConfig(path_length=3)).sequentialize(graph)
    rows.append(f"sequencer.path_length: l=1 -> "
                f"{short.cover_stats.max_path_length}-hop paths, l=3 -> "
                f"{deep.cover_stats.max_path_length}-hop paths")
    assert deep.cover_stats.max_path_length > \
        short.cover_stats.max_path_length

    # finetune.alpha
    from repro.finetune import node_matching_loss
    low = node_matching_loss(["a", "b", "c"], ["a"], alpha=0.0)
    high = node_matching_loss(["a", "b", "c"], ["a"], alpha=2.0)
    rows.append(f"finetune.alpha: loss alpha=0 -> {low}, alpha=2 -> {high}")
    assert high > low

    # llm.max_chain_length
    config = ChatGraphConfig(llm=LLMConfig(max_chain_length=1))
    capped = ChatGraph.pretrained(config=config, corpus_size=120, seed=4)
    result = capped.propose("write a brief report for G", graph)
    rows.append(f"llm.max_chain_length=1: proposed {len(result.chain)} "
                f"step(s) (fallback={result.used_fallback})")

    # llm.model preset: each trains at its own learning rate and L2
    weights, held_out = {}, {}
    for preset in MODEL_PRESETS:
        cg = ChatGraph(config=ChatGraphConfig(llm=LLMConfig(model=preset)))
        report = cg.finetune(CorpusSpec(n_examples=120, seed=4))
        weights[preset] = cg.model._weights
        held_out[preset] = report.final_metrics
    for left, right in itertools.combinations(MODEL_PRESETS, 2):
        assert not np.array_equal(weights[left], weights[right]), \
            (left, right)
    rows.append(
        "llm.model: three presets train to three different models; "
        "held-out exact match / matching loss "
        f"(n={held_out['chatglm-sim'].n_examples}): "
        + ", ".join(f"{preset} {held_out[preset].exact_match:.3f} / "
                    f"{held_out[preset].mean_matching_loss:.3f}"
                    for preset in MODEL_PRESETS))

    report_table("E11-config-coverage", *rows)
    benchmark(chatgraph.config.to_dict)


def test_session_round_trip(chatgraph, report_table, benchmark):
    """Fig. 2's panels: dialog, suggestions, upload + ask."""
    graph = social_network(30, 3, seed=12)

    def round_trip():
        session = ChatSession(chatgraph)
        session.upload_graph(graph)
        suggestions = session.suggestions()
        response = session.send(suggestions[0])
        return session, response

    session, response = round_trip()
    report_table(
        "E11-session-roundtrip",
        f"suggested questions: {len(session.suggestions())}",
        f"dialog turns after one exchange: {len(session.history)}",
        f"answer length: {len(response.answer)} chars",
        f"chain executed: {response.chain.render()}",
    )
    assert response.record.ok
    assert len(session.history) >= 3

    benchmark(round_trip)
