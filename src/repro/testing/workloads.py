"""Canonical seeded workloads shared by tests, benches, and loadgen.

One module defines every fixed prompt pool and demo graph the harnesses
replay, so they cannot drift apart:

* the golden-trace regression tests (``tests/test_golden_traces.py``),
  the ``python -m repro.cli trace --demo`` smoke run, and the CI
  ``smoke`` job replay :data:`CANONICAL_PROMPTS` over
  :func:`canonical_graph`;
* the traffic simulator (:mod:`repro.loadgen`) and the ledger
  benchmark (``benchmarks/ledger``) draw their request text from
  :data:`PROMPTS`, and the simulator its graphs from
  :func:`bench_graphs` / :func:`demo_graph_pool`.
"""

from __future__ import annotations

from typing import Any

from ..graphs.generators import knowledge_graph, social_network
from ..graphs.graph import Graph

#: The two canonical prompts of the golden-trace suite.  Each entry is
#: ``(slug, prompt text, graph builder kwargs-free thunk)``.
CANONICAL_PROMPTS: tuple[tuple[str, str, str], ...] = (
    ("social-report", "write a brief report for G", "social"),
    ("kg-clean", "clean up the knowledge graph", "kg"),
)

#: The shared prompt mix of the serving benchmark and every loadgen
#: persona (cycled / sampled over the workload).
PROMPTS: tuple[str, ...] = (
    "write a brief report for G",
    "find the communities of this network",
    "who are the influencers in G",
    "summarize the uploaded graph",
    "how dense is this graph",
    "clean the knowledge graph",
)


def canonical_graph(kind: str) -> Any:
    """The fixed seeded graph behind one canonical prompt."""
    if kind == "social":
        return social_network(30, 3, seed=7)
    if kind == "kg":
        return knowledge_graph(25, 80, seed=7)
    raise ValueError(f"unknown canonical graph kind {kind!r}")


def canonical_workload() -> list[tuple[str, str, Any]]:
    """``(slug, text, graph)`` triples of the canonical trace workload."""
    return [(slug, text, canonical_graph(kind))
            for slug, text, kind in CANONICAL_PROMPTS]


def bench_graphs(n_graphs: int = 4) -> list[Graph]:
    """Fixed demo graphs (half social, half KG) cycled by
    :func:`repro.loadgen.bench_workload` and the shard parity tests."""
    graphs: list[Graph] = []
    for index in range(max(1, n_graphs // 2)):
        graphs.append(social_network(30 + 4 * index, 3, seed=index))
    for index in range(max(1, n_graphs - len(graphs))):
        graphs.append(knowledge_graph(24 + 4 * index, 80, seed=index))
    return graphs


def demo_graph_pool() -> dict[str, Graph]:
    """Named, seeded demo graphs the loadgen personas draw from.

    Keys are stable identifiers (they appear verbatim in serialized
    request schedules); values are freshly built each call.  Execution
    never mutates an uploaded graph (edit APIs copy-then-replace), so
    sharing one pool across a soak run is safe.
    """
    return {
        "social-s": social_network(24, 3, seed=11),
        "social-m": social_network(40, 4, seed=12),
        "social-l": social_network(72, 6, seed=13),
        "kg-s": knowledge_graph(20, 60, seed=11),
        "kg-m": knowledge_graph(32, 110, seed=12),
        "kg-l": knowledge_graph(56, 200, seed=13),
    }
