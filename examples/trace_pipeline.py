"""End-to-end observability: trace, profile, and report a served run.

A tracing ChatGraphServer serves a few requests; afterwards we render
the span tree as a flame-style summary (request -> pipeline stage ->
API step -> retry attempt, with wall/CPU timings), export the
canonical byte-stable span log, and print the metrics report with
per-stage p50/p95/p99 latencies, cache hit rates, and the executor's
event counters.

Run:  python examples/trace_pipeline.py
"""

from pathlib import Path

from repro import ChatGraph, ChatGraphServer, ServeConfig
from repro.graphs import knowledge_graph, social_network
from repro.obs import (
    check_trace,
    render_flame,
    render_metrics_markdown,
    spans_to_jsonl,
    write_trace,
)


def main() -> None:
    print("finetuning the simulated backbone...")
    chatgraph = ChatGraph.pretrained(corpus_size=300, seed=0)

    config = ServeConfig(workers=2, seed=0, enable_tracing=True)
    questions = (
        ("write a brief report for G", social_network(30, 3, seed=7)),
        ("clean up the knowledge graph", knowledge_graph(25, 80, seed=7)),
        ("how many nodes does the graph have",
         social_network(30, 3, seed=7)),
    )

    with ChatGraphServer(chatgraph, config) as server:
        for question, graph in questions:
            response = server.ask(question, graph=graph)
            status = "ok" if response.ok else f"FAILED: {response.error}"
            print(f"  [{status}] {question}")
        spans = server.tracer.finished_spans()
        snapshot = server.metrics_snapshot()

    # -- the trace as a flame-style summary ----------------------------
    print()
    print(render_flame(spans))

    # -- structural soundness + canonical (byte-stable) export ---------
    problems = check_trace([span.to_dict() for span in spans])
    print(f"\ntrace integrity: "
          f"{'OK' if not problems else problems}")
    out = Path("trace_canonical.jsonl")
    write_trace(out, spans, canonical=True)
    print(f"canonical span log ({len(spans)} spans) -> {out}")
    # the canonical form drops timings and orders structurally, so a
    # rerun with the same seed produces byte-identical output:
    assert out.read_text() == spans_to_jsonl(spans, canonical=True)

    # -- the metrics report --------------------------------------------
    print()
    print(render_metrics_markdown(snapshot, title="Served-run metrics"))


if __name__ == "__main__":
    main()
