"""Exporters: JSON-lines span logs, flame summaries, metrics snapshots.

Two serializations of a trace:

* **full** — every span with its timings, ordered by start time; the
  operational log format;
* **canonical** — timings stripped, spans emitted in *structural* order
  (roots sorted by ``(name, span_id)``, children by their structural
  ``index``), keys sorted.  Two seeded runs of the same workload
  produce byte-identical canonical exports, which is what the golden
  regression tests and CI smoke job diff against.

:func:`render_flame` replays a span log as an indented flame-style
summary; :func:`render_metrics_markdown` renders a
``ChatGraphServer.metrics_snapshot()`` (or any dict of the same shape)
as a plain-markdown report.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from .trace import Span, TIMING_FIELDS


def _as_dicts(spans: Iterable[Span | dict[str, Any]],
              canonical: bool = False) -> list[dict[str, Any]]:
    out = []
    for span in spans:
        if isinstance(span, Span):
            out.append(span.to_dict(canonical=canonical))
        else:
            data = dict(span)
            if canonical:
                for fld in TIMING_FIELDS:
                    data.pop(fld, None)
            out.append(data)
    return out


def structural_order(spans: Iterable[Span | dict[str, Any]]
                     ) -> list[dict[str, Any]]:
    """Depth-first structural order, independent of wall-clock times.

    Roots (spans whose parent is absent from the set) sort by
    ``(name, span_id)``; children sort by their structural ``index``
    (ties broken by span_id, which cannot happen for a well-formed
    tree but keeps the order total).
    """
    dicts = _as_dicts(spans)
    by_id = {d["span_id"]: d for d in dicts}
    children: dict[str | None, list[dict[str, Any]]] = {}
    roots: list[dict[str, Any]] = []
    for d in dicts:
        parent = d.get("parent_id")
        if parent is None or parent not in by_id:
            roots.append(d)
        else:
            children.setdefault(parent, []).append(d)
    roots.sort(key=lambda d: (d.get("name", ""), d["span_id"]))
    ordered: list[dict[str, Any]] = []

    def visit(node: dict[str, Any]) -> None:
        ordered.append(node)
        for child in sorted(children.get(node["span_id"], ()),
                            key=lambda d: (d.get("index", 0),
                                           d["span_id"])):
            visit(child)

    for root in roots:
        visit(root)
    return ordered


def spans_to_jsonl(spans: Iterable[Span | dict[str, Any]],
                   canonical: bool = False) -> str:
    """One JSON object per line; see the module docstring for modes."""
    if canonical:
        ordered = [
            {k: v for k, v in d.items() if k not in TIMING_FIELDS}
            for d in structural_order(spans)
        ]
    else:
        ordered = sorted(_as_dicts(spans),
                         key=lambda d: (d.get("start", 0.0), d["span_id"]))
    lines = [json.dumps(d, sort_keys=True, default=str) for d in ordered]
    return "\n".join(lines) + ("\n" if lines else "")


def write_trace(path: str | Path, spans: Iterable[Span | dict[str, Any]],
                canonical: bool = False) -> Path:
    path = Path(path)
    path.write_text(spans_to_jsonl(spans, canonical=canonical),
                    encoding="utf-8")
    return path


def load_trace(text: str) -> list[dict[str, Any]]:
    """Parse a JSON-lines span log back into span dicts."""
    spans = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            spans.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad span log line {lineno}: {exc}") from exc
    return spans


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    return load_trace(Path(path).read_text(encoding="utf-8"))


def merge_traces(*span_lists: Iterable[Span | dict[str, Any]]
                 ) -> list[dict[str, Any]]:
    """Merge span logs from many processes into one structural view.

    Cross-process spans share one id space (span ids are content-keyed,
    and the coordinator's span id travels to the shard as the parent of
    the shard-side request span), so merging is a union: duplicates by
    ``span_id`` collapse (first occurrence wins — canonical exports of
    the same span are identical anyway) and the union is re-ordered
    structurally, exactly as if one tracer had recorded every span.
    Feed the result to :func:`spans_to_jsonl`, :func:`render_flame`, or
    :func:`check_trace`.
    """
    merged: dict[str, dict[str, Any]] = {}
    for spans in span_lists:
        for d in _as_dicts(spans):
            merged.setdefault(d["span_id"], d)
    return structural_order(merged.values())


def check_trace(spans: Sequence[dict[str, Any]]) -> list[str]:
    """Structural integrity problems of a span log (empty = sound)."""
    problems: list[str] = []
    seen: dict[str, dict[str, Any]] = {}
    for d in spans:
        span_id = d.get("span_id")
        if not span_id:
            problems.append(f"span without span_id: {d!r}")
            continue
        if span_id in seen:
            problems.append(f"duplicate span_id {span_id}")
        seen[span_id] = d
    for d in spans:
        parent = d.get("parent_id")
        if parent is not None and parent not in seen:
            problems.append(
                f"span {d.get('span_id')} ({d.get('name')}) has unknown "
                f"parent {parent}")
        if d.get("parent_id") == d.get("span_id"):
            problems.append(f"span {d.get('span_id')} is its own parent")
    return problems


# ----------------------------------------------------------------------
# flame-style rendering
# ----------------------------------------------------------------------
def render_flame(spans: Iterable[Span | dict[str, Any]],
                 bar_width: int = 24) -> str:
    """Indented flame-style summary of a span log.

    Each line shows the span name, its wall time, its share of the
    root's wall time as a bar, and status/attempt annotations.  Works
    on canonical traces too (timings render as ``-``).
    """
    ordered = structural_order(spans)
    if not ordered:
        return "(empty trace)"
    by_id = {d["span_id"]: d for d in ordered}
    depth: dict[str, int] = {}
    root_wall: dict[str, float] = {}

    def root_of(d: dict[str, Any]) -> dict[str, Any]:
        while d.get("parent_id") in by_id:
            d = by_id[d["parent_id"]]
        return d

    lines = []
    for d in ordered:
        parent = d.get("parent_id")
        depth[d["span_id"]] = depth.get(parent, -1) + 1 \
            if parent in by_id else 0
        root = root_of(d)
        total = root_wall.setdefault(root["span_id"],
                                     float(root.get("wall_seconds", 0.0)))
        wall = d.get("wall_seconds")
        if wall is None:
            timing, bar = "      -", " " * bar_width
        else:
            timing = f"{float(wall) * 1000:9.3f}ms"
            share = float(wall) / total if total > 0 else 0.0
            filled = min(bar_width, int(round(share * bar_width)))
            bar = "#" * filled + "." * (bar_width - filled)
        indent = "  " * depth[d["span_id"]]
        suffix = ""
        if d.get("status") == "error":
            suffix += f"  !error {d.get('error', '')}".rstrip()
        cpu = d.get("cpu_seconds")
        if cpu is not None:
            suffix += f"  cpu={float(cpu) * 1000:.3f}ms"
        lines.append(f"[{bar}] {timing}  {indent}{d.get('name')}{suffix}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# metrics snapshot rendering
# ----------------------------------------------------------------------
def _fmt_seconds(value: float) -> str:
    return f"{value * 1000:.3f}ms"


def render_metrics_markdown(snapshot: dict[str, Any],
                            title: str = "Metrics snapshot") -> str:
    """Render a metrics snapshot as a plain-markdown report.

    Understands the shape produced by
    ``ChatGraphServer.metrics_snapshot()`` — ``counters``, ``gauges``,
    ``latency`` (per-stage quantile summaries), ``histograms``,
    ``caches``, ``breakers``, ``trace`` — and skips absent sections.
    """
    out = [f"# {title}", ""]
    counters = snapshot.get("counters") or {}
    if counters:
        out += ["## Counters", "", "| counter | value |", "| --- | --- |"]
        out += [f"| {name} | {value} |"
                for name, value in sorted(counters.items())]
        out.append("")
    gauges = snapshot.get("gauges") or {}
    if gauges:
        out += ["## Gauges", "", "| gauge | value |", "| --- | --- |"]
        out += [f"| {name} | {value:g} |"
                for name, value in sorted(gauges.items())]
        out.append("")
    for section, heading in (("latency", "Latency (per stage)"),
                             ("histograms", "Histograms")):
        summaries = snapshot.get(section) or {}
        # a single process has no worker dumps underneath: its
        # ``histograms`` are its ``latency``, printed once
        if not summaries or (section == "histograms"
                             and summaries == snapshot.get("latency")):
            continue
        out += [f"## {heading}", "",
                "| stage | count | mean | p50 | p95 | p99 | max |",
                "| --- | --- | --- | --- | --- | --- | --- |"]
        for name, summary in sorted(summaries.items()):
            out.append(
                "| {name} | {count} | {mean} | {p50} | {p95} | {p99} "
                "| {max} |".format(
                    name=name, count=int(summary.get("count", 0)),
                    mean=_fmt_seconds(summary.get("mean", 0.0)),
                    p50=_fmt_seconds(summary.get("p50", 0.0)),
                    p95=_fmt_seconds(summary.get("p95", 0.0)),
                    p99=_fmt_seconds(summary.get("p99", 0.0)),
                    max=_fmt_seconds(summary.get("max", 0.0))))
        out.append("")
    caches = snapshot.get("caches") or {}
    if caches:
        out += ["## Caches", "",
                "| cache | hits | misses | hit rate | size |",
                "| --- | --- | --- | --- | --- |"]
        for name, stats in sorted(caches.items()):
            out.append(f"| {name} | {stats.get('hits', 0)} "
                       f"| {stats.get('misses', 0)} "
                       f"| {stats.get('hit_rate', 0.0):.2%} "
                       f"| {stats.get('size', 0)} |")
        out.append("")
    breakers = snapshot.get("breakers") or {}
    if breakers:
        out += ["## Circuit breakers", "",
                "| api | state | failures | times opened |",
                "| --- | --- | --- | --- |"]
        for name, state in sorted(breakers.items()):
            out.append(f"| {name} | {state.get('state')} "
                       f"| {state.get('failures', 0)} "
                       f"| {state.get('times_opened', 0)} |")
        out.append("")
    trace = snapshot.get("trace") or {}
    if trace:
        out += ["## Trace", ""]
        out += [f"- spans: {trace.get('spans', 0)} "
                f"(dropped {trace.get('dropped', 0)} of cap "
                f"{trace.get('max_spans', 0)})"]
        by_kind = trace.get("by_kind") or {}
        if by_kind:
            out.append("- by kind: " + ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(by_kind.items())))
        out.append("")
    return "\n".join(out).rstrip() + "\n"
