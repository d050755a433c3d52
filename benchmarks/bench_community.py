"""E2-ablation — community detectors behind the understanding scenario.

The report chain's ``detect_communities`` API exposes three methods
(label propagation, greedy modularity, spectral).  This ablation sweeps
planted-partition difficulty and reports recovered modularity and
runtime for each, plus agreement with the planted ground truth.
"""

from __future__ import annotations

import time

import pytest

from repro.algorithms import (
    greedy_modularity_communities,
    label_propagation,
    modularity,
    spectral_communities,
)
from repro.graphs import social_network

MIXINGS = (0.01, 0.03, 0.06)  # p_out; higher = harder
N = 60
K = 3


def planted_agreement(graph, communities) -> float:
    """Pairwise same-community agreement with the planted partition."""
    planted = {node: graph.get_node_attr(node, "community")
               for node in graph.nodes()}
    detected = {}
    for cid, community in enumerate(communities):
        for node in community:
            detected[node] = cid
    nodes = list(graph.nodes())
    agree = total = 0
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            total += 1
            if (planted[u] == planted[v]) == (detected[u] == detected[v]):
                agree += 1
    return agree / total if total else 1.0


def test_method_sweep(report_table, benchmark):
    methods = {
        "label_prop": lambda g: label_propagation(g, seed=0),
        "greedy_mod": greedy_modularity_communities,
        "spectral": lambda g: spectral_communities(g, k=K),
    }
    rows = [f"{'p_out':>6} {'method':<12} {'Q':>7} {'agreement':>10} "
            f"{'ms':>8}"]
    quality: dict[str, list[float]] = {name: [] for name in methods}
    for p_out in MIXINGS:
        graph = social_network(N, K, p_in=0.35, p_out=p_out, seed=17)
        for name, method in methods.items():
            start = time.perf_counter()
            communities = method(graph)
            elapsed = time.perf_counter() - start
            q = modularity(graph, communities)
            agreement = planted_agreement(graph, communities)
            quality[name].append(agreement)
            rows.append(f"{p_out:>6.2f} {name:<12} {q:>7.3f} "
                        f"{agreement:>10.3f} {elapsed * 1e3:>8.2f}")
    report_table("E2-community-ablation", *rows)
    # at the easiest mixing every method recovers the planted structure
    for name, series in quality.items():
        assert series[0] > 0.85, (name, series)

    # a fresh copy per round: the labels are memoised on the graph
    # object, and rounds on one object would time memo hits
    graph = social_network(N, K, p_in=0.35, p_out=0.01, seed=17)
    benchmark.pedantic(label_propagation,
                       setup=lambda: ((graph.copy(),), {"seed": 0}),
                       rounds=50)
