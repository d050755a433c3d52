"""repro.obs — end-to-end tracing and metrics.

The observability layer of the reproduction:

* :mod:`trace` — :class:`Tracer`: hierarchical spans (request ->
  pipeline stage -> API step -> retry attempt) with monotonic-clock
  timings and deterministic seed-derived span IDs; thread-local
  propagation plus explicit cross-thread handoff for the
  :mod:`repro.serve` worker pool;
* :mod:`metrics` — :class:`MetricsRegistry`: counters and
  fixed-bucket :class:`Histogram` quantiles (p50/p95/p99), fed by the
  request edges and the executor's listener events;
* :mod:`export` — JSON-lines span logs (full and canonical
  byte-stable forms), flame-style trace rendering, markdown metrics
  snapshots.

Wire into a server with ``ServeConfig(obs=ObsConfig(
enable_tracing=True))``, or directly::

    from repro.obs import Tracer
    tracer = Tracer(seed=0)
    chatgraph.set_tracer(tracer)
    chatgraph.ask("write a brief report for G", graph=g)
    print(render_flame(tracer.finished_spans()))
"""

from .export import (
    check_trace,
    load_trace,
    merge_traces,
    read_trace,
    render_flame,
    render_metrics_markdown,
    spans_to_jsonl,
    structural_order,
    write_trace,
)
from .metrics import (
    CounterMetric,
    Histogram,
    MetricsRegistry,
    merge_metrics_dumps,
)
from .trace import NULL_SPAN, TIMING_FIELDS, NullSpan, Span, Tracer, span

__all__ = [
    "CounterMetric",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullSpan",
    "Span",
    "TIMING_FIELDS",
    "Tracer",
    "check_trace",
    "load_trace",
    "merge_metrics_dumps",
    "merge_traces",
    "read_trace",
    "render_flame",
    "render_metrics_markdown",
    "span",
    "spans_to_jsonl",
    "structural_order",
    "write_trace",
]
