"""Hierarchical tracing with deterministic span identity.

A :class:`Tracer` produces :class:`Span` trees — request -> pipeline
stage -> API step -> retry attempt — with monotonic-clock timings and
*deterministic* span IDs: every ID is a digest of ``(seed, parent_id,
name, child_index[, key])``, so a seeded workload produces the same
tree, span for span, run after run.  Wall-clock time never enters the
identity, which is what makes golden-trace regression tests possible.

Propagation is thread-local: ``tracer.span(...)`` nests under the
innermost span open *on the current thread*.  Crossing a thread
boundary (the :mod:`repro.serve` worker pool) is explicit — either pass
``parent=``, a span or a span ID captured on the submitting thread.
Spans from different requests therefore can never interleave: each
worker thread owns its own stack.

Timings use :func:`time.perf_counter` (wall) and
:func:`time.process_time` (CPU).
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

Clock = Callable[[], float]

#: Fields carrying run-dependent timing data; canonical exports drop
#: them (see :mod:`repro.obs.export`).
TIMING_FIELDS = ("start", "wall_seconds", "cpu_seconds")


@dataclass
class Span:
    """One timed node of a trace tree."""

    span_id: str
    parent_id: str | None
    name: str
    #: Coarse role: ``request`` | ``op`` | ``pipeline`` | ``stage`` |
    #: ``chain`` | ``step`` | ``attempt`` | ``span`` (free-form).
    kind: str
    #: Structural position under the parent (0-based); roots use their
    #: occurrence index.  Identity and canonical ordering derive from
    #: this, never from timestamps.
    index: int
    start: float
    wall_seconds: float = 0.0
    cpu_seconds: float | None = None
    status: str = "ok"
    error: str = ""
    attrs: dict[str, Any] = field(default_factory=dict)
    _children: int = field(default=0, repr=False, compare=False)

    def set(self, **attrs: Any) -> None:
        """Attach (deterministic!) attributes to the span."""
        self.attrs.update(attrs)

    def mark_error(self, message: str) -> None:
        self.status = "error"
        self.error = message

    def to_dict(self, canonical: bool = False) -> dict[str, Any]:
        """Plain-dict view; ``canonical`` drops run-dependent timings."""
        data: dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "index": self.index,
            "status": self.status,
            "attrs": dict(self.attrs),
        }
        if self.error:
            data["error"] = self.error
        if not canonical:
            data["start"] = self.start
            data["wall_seconds"] = self.wall_seconds
            if self.cpu_seconds is not None:
                data["cpu_seconds"] = self.cpu_seconds
        return data


class NullSpan:
    """No-op stand-in so instrumented code needs no ``if tracer`` forks;
    also its own (stateless) context manager — see :func:`span`."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def mark_error(self, message: str) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


NULL_SPAN = NullSpan()


def span(tracer: "Tracer | None", name: str, **kwargs: Any) -> Any:
    """``tracer.span(name, **kwargs)``, or :data:`NULL_SPAN` untraced:
    the one way instrumented code opens a span, so its block is written
    once.  (Code whose traced arm computes attributes the untraced arm
    must not pay for keeps an explicit ``if tracer`` instead.)"""
    return NULL_SPAN if tracer is None else tracer.span(name, **kwargs)


#: Sentinel distinguishing "no parent given, use the thread-local
#: current span" from an explicit ``parent=None`` (force a root span).
_CURRENT = object()


class Tracer:
    """Produces deterministic span trees; thread-safe.

    Example::

        tracer = Tracer(seed=0)
        with tracer.span("request:ask", kind="request", key="a1b2"):
            with tracer.span("stage:intent", kind="stage"):
                ...
        print(len(tracer.finished_spans()))
    """

    def __init__(self, seed: int = 0, max_spans: int = 100_000,
                 clock: Clock = time.perf_counter,
                 cpu_clock: Clock = time.process_time) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.seed = seed
        self.max_spans = max_spans
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._finished: list[Span] = []
        self._dropped = 0
        self._root_occurrences: Counter = Counter()

    # ------------------------------------------------------------------
    # thread-local span stack
    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """Innermost span open on the calling thread (None outside)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def current_id(self) -> str | None:
        span = self.current()
        return span.span_id if span is not None else None

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def _next_index(self, parent: Span | None, key: str | None) -> int:
        with self._lock:
            if parent is not None:
                parent._children += 1
                return parent._children - 1
            occurrence_key = key if key is not None else ""
            self._root_occurrences[occurrence_key] += 1
            return self._root_occurrences[occurrence_key] - 1

    def _span_id(self, parent_id: str | None, name: str, index: int,
                 key: str | None) -> str:
        material = "\x1f".join((str(self.seed), parent_id or "", name,
                                str(index), key or ""))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, kind: str = "span", key: str | None = None,
             parent: Any = _CURRENT, **attrs: Any) -> Iterator[Span]:
        """Open a child of the current (or given) span for the block.

        ``key`` feeds the identity of *root* spans so their IDs derive
        from request content instead of arrival order; ``parent``
        accepts a :class:`Span`, a span-ID string captured on another
        thread, or ``None`` to force a new root.
        """
        if parent is _CURRENT:
            parent = self.current()
        parent_span = parent if isinstance(parent, Span) else None
        parent_id = (parent_span.span_id if parent_span is not None
                     else parent if isinstance(parent, str) else None)
        index = self._next_index(parent_span, key)
        span = Span(
            span_id=self._span_id(parent_id, name, index, key),
            parent_id=parent_id,
            name=name,
            kind=kind,
            index=index,
            start=self._clock(),
            attrs=dict(attrs),
        )
        cpu_start = self._cpu_clock()
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        except BaseException as exc:
            if span.status == "ok":
                span.mark_error(f"{type(exc).__name__}: {exc}")
            raise
        finally:
            stack.pop()
            span.wall_seconds = self._clock() - span.start
            span.cpu_seconds = self._cpu_clock() - cpu_start
            self._record(span)

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._finished) >= self.max_spans:
                self._dropped += 1
                return
            self._finished.append(span)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def finished_spans(self) -> tuple[Span, ...]:
        """Snapshot of completed spans (in completion order)."""
        with self._lock:
            return tuple(self._finished)

    def request_spans(self, root_id: str) -> tuple[Span, ...]:
        """All finished spans of the tree rooted at ``root_id``."""
        spans = self.finished_spans()
        members = {root_id}
        grew = True
        while grew:
            grew = False
            for span in spans:
                if span.span_id not in members and \
                        span.parent_id in members:
                    members.add(span.span_id)
                    grew = True
        return tuple(s for s in spans if s.span_id in members)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self._dropped = 0
            self._root_occurrences.clear()

    def stats(self) -> dict[str, Any]:
        with self._lock:
            kinds = Counter(span.kind for span in self._finished)
            return {
                "spans": len(self._finished),
                "dropped": self._dropped,
                "max_spans": self.max_spans,
                "by_kind": dict(sorted(kinds.items())),
            }
