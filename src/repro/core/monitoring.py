"""Chain execution monitoring (paper scenario 4, Fig. 7)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..apis.executor import ExecutionEvent


@dataclass
class ChainMonitor:
    """Collects execution events and renders live progress.

    Attach it to a :class:`~repro.apis.executor.ChainExecutor` with
    ``executor.add_listener(monitor)`` — the instance is callable.

    ``events`` is the full transcript across every chain the monitor
    observed; the progress state (``progress``, ``current_step``, the
    recovery counters) is reset on each ``chain_started`` so a reused
    monitor reports the *current* chain, not an accumulation.
    """

    events: list[ExecutionEvent] = field(default_factory=list)
    n_steps: int = 0
    current_step: int = -1
    finished: bool = False
    failed: bool = False
    #: Steps finished in the current chain (not across the transcript).
    steps_done: int = 0
    #: Recovery activity within the current chain.
    retries: int = 0
    timeouts: int = 0
    breaker_trips: int = 0

    def __call__(self, event: ExecutionEvent) -> None:
        self.events.append(event)
        if event.kind == "chain_started":
            self.n_steps = event.n_steps or 0
            self.current_step = -1
            self.finished = self.failed = False
            self.steps_done = 0
            self.retries = self.timeouts = self.breaker_trips = 0
        elif event.kind == "step_started":
            if event.step_index is not None:
                self.current_step = event.step_index
        elif event.kind == "step_finished":
            self.steps_done += 1
        elif event.kind == "step_retried":
            self.retries += 1
        elif event.kind == "step_timed_out":
            self.timeouts += 1
        elif event.kind == "breaker_opened":
            self.breaker_trips += 1
        elif event.kind == "step_failed":
            self.failed = True
        elif event.kind == "chain_finished":
            self.finished = True
        elif event.kind == "chain_failed":
            self.failed = True
            self.finished = True

    @property
    def progress(self) -> float:
        """Fraction of the current chain's steps finished, in [0, 1]."""
        if self.n_steps == 0:
            return 1.0 if self.finished else 0.0
        return min(1.0, self.steps_done / self.n_steps)

    def render_progress(self, width: int = 30) -> str:
        """One-line progress bar like ``[#####.....] 3/6 step ...``."""
        filled = int(self.progress * width)
        bar = "#" * filled + "." * (width - filled)
        status = "failed" if self.failed else (
            "done" if self.finished else f"running step {self.current_step}")
        recovery = ""
        if self.retries or self.timeouts or self.breaker_trips:
            parts = []
            if self.retries:
                parts.append(f"{self.retries} retries")
            if self.timeouts:
                parts.append(f"{self.timeouts} timeouts")
            if self.breaker_trips:
                parts.append(f"{self.breaker_trips} breaker trips")
            recovery = f" ({', '.join(parts)})"
        return f"[{bar}] {self.steps_done}/{self.n_steps} {status}{recovery}"

    def transcript(self) -> str:
        """Every event rendered, one per line."""
        return "\n".join(event.render() for event in self.events)

    def event_counts(self) -> dict[str, int]:
        """Event kinds seen across the whole transcript."""
        return dict(Counter(event.kind for event in self.events))

    def reset(self) -> None:
        self.events.clear()
        self.n_steps = 0
        self.current_step = -1
        self.finished = self.failed = False
        self.steps_done = 0
        self.retries = self.timeouts = self.breaker_trips = 0
