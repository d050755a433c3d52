"""E1 — Fig. 1 architecture: end-to-end flow and per-module latency.

Reproduces the system-level claim of Fig. 1: a prompt flows through
intent, type prediction, retrieval, sequentialization, generation and
execution, and each module contributes bounded latency.
"""

from __future__ import annotations

import pytest

from repro.graphs import social_network
from repro.llm.prompts import Prompt

PROMPTS = (
    "write a brief report for G",
    "detect the communities of this network",
    "how many nodes does the graph have",
)
SIZES = (30, 100, 300)


def test_per_module_latency(chatgraph, report_table, benchmark):
    rows = [f"{'prompt':<42} {'n':>4} {'intent':>8} {'type':>8} "
            f"{'retrieve':>9} {'sequence':>9} {'generate':>9} "
            f"{'execute':>9}  (ms)"]
    for text in PROMPTS:
        for n in SIZES:
            graph = social_network(n, max(2, n // 15), seed=n)
            result = chatgraph.pipeline.process(Prompt(text, graph))
            record, __ = chatgraph.execute(result)
            assert record.ok
            t = result.timings
            rows.append(
                f"{text:<42} {n:>4} {t['intent'] * 1e3:>8.2f} "
                f"{t['graph_type'] * 1e3:>8.2f} "
                f"{t['retrieval'] * 1e3:>9.2f} "
                f"{t['sequentialize'] * 1e3:>9.2f} "
                f"{t['generate'] * 1e3:>9.2f} "
                f"{record.total_seconds * 1e3:>9.2f}")
    report_table("E1-pipeline-latency", *rows)

    # a fresh copy per round: the view and the steps' topology results
    # are memoised on the graph object, and rounds on one object would
    # time memo hits
    graph = social_network(100, 5, seed=1)
    benchmark.pedantic(lambda fresh: chatgraph.ask(PROMPTS[0], graph=fresh),
                       setup=lambda: ((graph.copy(),), {}), rounds=20)


def test_end_to_end_success_rate(chatgraph, report_table, benchmark):
    """Every prompt/size combination completes with an executable chain."""
    ok = 0
    total = 0
    fallbacks = 0
    for text in PROMPTS:
        for n in SIZES:
            graph = social_network(n, max(2, n // 15), seed=n + 7)
            response = chatgraph.ask(text, graph=graph)
            total += 1
            ok += int(response.record.ok)
            fallbacks += int(response.pipeline.used_fallback)
    report_table(
        "E1-pipeline-robustness",
        f"prompts x sizes: {total}",
        f"chains executed ok: {ok}/{total}",
        f"fallback chains used: {fallbacks}/{total}",
    )
    assert ok == total

    graph = social_network(30, 2, seed=3)
    benchmark.pedantic(lambda fresh: chatgraph.propose(PROMPTS[2], fresh),
                       setup=lambda: ((graph.copy(),), {}), rounds=20)
