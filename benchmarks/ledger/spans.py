"""The harness's own span recorder (traced runs only).

Spans are recorded from the benchmark's files, around the calls into
each layer; nothing inside ``src/`` is switched on.  They are held in
memory and written to ``trace-<workload>.jsonl`` when the workload
ends.  One line is one span::

    {"name": "sequencer.sequentialize", "request_id": "pass1-17",
     "id": 412, "parent": 409, "start": 3.1412, "end": 3.1489,
     "group": "request"}

``start``/``end`` are ``time.perf_counter`` seconds of the workload
process, as clocked.  ``group`` separates the per-request trees
(``request``) from the probes run afterwards (``probe``); ``slow`` is
the host's slow factor around the span's request (see ``stats``), when
one was read; a span whose interval was laid out from reported
durations rather than clocked carries ``"synthetic": true``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator


@dataclass
class Span:
    id: int
    name: str
    request_id: str
    parent: int | None
    start: float
    end: float = 0.0
    group: str = "request"
    synthetic: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self, slow: float | None = None) -> dict[str, Any]:
        out = {"name": self.name, "request_id": self.request_id,
               "id": self.id, "parent": self.parent,
               "start": self.start, "end": self.end, "group": self.group}
        if slow is not None:
            out["slow"] = slow
        if self.synthetic:
            out["synthetic"] = True
        return out


class Recorder:
    """In-memory span store; single-threaded (the generator thread)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Slow factor per ``request_id`` (absent = not read, taken as 1).
        self.slow: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request_id: str,
             group: str = "request") -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, request_id, parent,
                    time.perf_counter(), group=group)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, request_id: str, start: float, end: float,
            parent: int | None = None, group: str = "request",
            synthetic: bool = False) -> Span:
        """Record a span whose interval is already known."""
        span = Span(len(self.spans), name, request_id, parent, start, end,
                    group, synthetic)
        self.spans.append(span)
        return span

    def nominal(self, span: Span, seconds: float | None = None) -> float:
        """``seconds`` (default: the span's duration) at nominal host
        speed, i.e. over the slow factor of the span's request."""
        if seconds is None:
            seconds = span.seconds
        return seconds / self.slow.get(span.request_id, 1.0)

    # ------------------------------------------------------------------
    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                out.setdefault(span.parent, []).append(span)
        return out

    def roots(self, group: str = "request") -> list[Span]:
        return [span for span in self.spans
                if span.parent is None and span.group == group]

    def named(self, name: str, group: str | None = None) -> list[Span]:
        return [span for span in self.spans if span.name == name
                and (group is None or span.group == group)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                document = span.to_dict(self.slow.get(span.request_id))
                handle.write(json.dumps(document, sort_keys=True))
                handle.write("\n")


def covered(span: Span, kids: list[Span]) -> float:
    """Seconds of ``span``'s interval that its children cover (the
    union of their intervals, clipped to the parent)."""
    total = 0.0
    cursor = span.start
    for kid in sorted(kids, key=lambda k: k.start):
        start = max(kid.start, cursor)
        end = min(kid.end, span.end)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_seconds(span: Span, kids: list[Span]) -> float:
    """Self time: duration minus the part child spans cover."""
    return span.seconds - covered(span, kids)


def self_time_by_name(recorder: Recorder,
                      group: str = "request") -> dict[str, float]:
    """Total self seconds (at nominal host speed) per span name."""
    kids = recorder.children()
    totals: dict[str, float] = {}
    for span in recorder.spans:
        if span.group != group:
            continue
        own = recorder.nominal(span, self_seconds(span, kids.get(span.id, [])))
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def unexplained_shares(recorder: Recorder) -> list[float]:
    """Per ``request`` root: (root - covered children) / root."""
    kids = recorder.children()
    shares = []
    for root in recorder.roots():
        if root.name == "request" and root.seconds > 0:
            shares.append(self_seconds(root, kids.get(root.id, []))
                          / root.seconds)
    return shares
