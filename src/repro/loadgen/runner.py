"""The soak runner: replay a schedule against a live ChatGraphServer.

Two clock disciplines share one loop:

* **real clock** (default) — the runner sleeps until each request's
  scheduled offset and submits open-loop; end-to-end latency includes
  real queueing.
* **fake clock** — the runner drives a :class:`VirtualClock` (inject
  the same instance into the server via ``ChatGraphServer(...,
  clock=...)``): think times, TTLs, rate-limit refills, breaker
  cooldowns, and chaos windows elapse *virtually*, so an hour-long
  diurnal soak runs in seconds and is deterministic.  Because virtual
  idle time costs nothing, the runner drains outstanding work whenever
  the next virtual inter-arrival gap is at least ``pace_gap_seconds``
  — compression itself must not overload the server — while closer
  arrivals fire back-to-back, so genuine bursts still pile onto the
  admission queue and exercise backpressure.  Latency gates read pure
  service time in this mode (real queued time under compression is an
  artifact); real-clock runs gate on queued + service.

Timed :class:`FleetEvent` rows (kill / add / remove a shard) fire from
the same loop under either discipline: each runs exactly once, in time
order, just before the first request scheduled at or after its instant.

The report sources every quantile from the
:class:`repro.obs.metrics.Histogram` primitive and reconciles the
runner's own event counts exactly against ``server.stats()`` — a soak
whose books don't balance is a bug, not a report.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any

from ..errors import (
    BackpressureError,
    ChatGraphError,
    ConfigError,
    RateLimitError,
)
from ..obs.metrics import Histogram
from .schedule import Schedule, ScheduledRequest

__all__ = ["FleetEvent", "SoakRunner", "VirtualClock"]

_FLEET_ACTIONS = ("kill", "add", "remove")


@dataclass(frozen=True)
class FleetEvent:
    """One scripted change to a sharded fleet at soak time ``at``.

    ``kill`` SIGKILLs shard ``shard`` (the fleet must detect, fail over
    and restart it), ``add`` grows the fleet by one shard and ``remove``
    migrates shard ``shard`` away, both live.
    """

    at: float
    action: str
    shard: int | None = None

    def __post_init__(self) -> None:
        if self.action not in _FLEET_ACTIONS:
            raise ConfigError(f"unknown fleet action {self.action!r}; "
                              f"expected one of {_FLEET_ACTIONS}")
        if (self.shard is None) != (self.action == "add"):
            raise ConfigError("kill/remove name a shard; add does not")


class VirtualClock:
    """A monotonic clock advanced by hand (thread-safe).

    Inject one instance into both the server (TTL, rate limits,
    breaker cooldowns) and any :class:`~repro.loadgen.chaos.
    WindowedChaos` so every time-dependent component sees the same
    virtual timeline.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0.0:
            raise ValueError("virtual clocks never run backwards")
        with self._lock:
            self._now += seconds
            return self._now

    def advance_to(self, target: float) -> float:
        """Move to ``target`` (no-op if the clock is already past it)."""
        with self._lock:
            if target > self._now:
                self._now = target
            return self._now


class _Agg:
    """Counts + a latency histogram for one report scope."""

    __slots__ = ("submitted", "ok", "errors", "degraded",
                 "rejected_rate_limit", "rejected_backpressure",
                 "latency")

    def __init__(self) -> None:
        self.submitted = 0
        self.ok = 0
        self.errors = 0
        self.degraded = 0
        self.rejected_rate_limit = 0
        self.rejected_backpressure = 0
        self.latency = Histogram()

    def to_dict(self) -> dict[str, Any]:
        responses = self.ok + self.errors
        rejected = self.rejected_rate_limit + self.rejected_backpressure
        return {
            "submitted": self.submitted,
            "ok": self.ok,
            "errors": self.errors,
            "degraded": self.degraded,
            "rejected_rate_limit": self.rejected_rate_limit,
            "rejected_backpressure": self.rejected_backpressure,
            "rejected": rejected,
            "error_rate": self.errors / max(1, responses),
            "degraded_rate": self.degraded / max(1, responses),
            "rejection_rate": rejected / max(1, self.submitted),
            "latency": self.latency.summary(),
        }


class SoakRunner:
    """Drive one schedule through one (already started) server."""

    def __init__(self, server: Any, schedule: Schedule,
                 window_seconds: float = 30.0,
                 clock: VirtualClock | None = None,
                 pace_gap_seconds: float = 0.5,
                 barriers: tuple[float, ...] = (),
                 events: tuple[FleetEvent, ...] = (),
                 result_timeout: float = 120.0,
                 sleep: Any = time.sleep) -> None:
        if window_seconds <= 0.0:
            raise ValueError("window_seconds must be > 0")
        self.server = server
        self.schedule = schedule
        self.window_seconds = window_seconds
        self.clock = clock
        self.pace_gap_seconds = pace_gap_seconds
        #: Virtual timestamps the fake clock may not cross while work
        #: is outstanding: the runner drains first, so everything
        #: admitted before the barrier *executes* before it (chaos
        #: windows need this — compression would otherwise race the
        #: clock past the fault window before any backlog runs).  Real
        #: time crosses no barriers; the flag is ignored there.
        self.barriers = tuple(sorted(barriers))
        self._events = sorted(events, key=lambda event: event.at)
        #: One row per fired event: what ran, when, and what the fleet
        #: answered (a migration report, or the error that refused it).
        self._fired: list[dict[str, Any]] = []
        self.result_timeout = result_timeout
        self._sleep = sleep
        #: Windows span the whole schedule, including session turns
        #: spilling past the arrival-process duration.
        last_at = max((item.at for item in schedule.items),
                      default=0.0)
        self.span = max(schedule.duration, last_at)
        self._aggs: dict[tuple, _Agg] = {}
        #: (pending, window, persona) triples not yet resolved.
        self._outstanding: list[tuple[Any, int, str]] = []
        self._cache_trajectory: list[float] = []
        self._breaker_timeline: list[dict[str, Any]] = []
        self._sampled_boundaries = 0

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def _agg(self, *key: Any) -> _Agg:
        agg = self._aggs.get(key)
        if agg is None:
            agg = self._aggs[key] = _Agg()
        return agg

    def _scopes(self, window: int, persona: str) -> tuple[_Agg, ...]:
        return (self._agg("overall"), self._agg("persona", persona),
                self._agg("window", window),
                self._agg("winper", window, persona))

    def _window_of(self, at: float) -> int:
        return min(int(at / self.window_seconds),
                   self._n_windows() - 1)

    def _n_windows(self) -> int:
        return max(1, math.ceil(self.span / self.window_seconds))

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def _sample_boundary(self, boundary: int) -> None:
        stats = self.server.stats()
        retrieval = (stats.get("caches") or {}).get("retrieval", {})
        self._cache_trajectory.append(retrieval.get("hit_rate", 0.0))
        self._breaker_timeline.append({
            "window": boundary,
            "t": boundary * self.window_seconds,
            "open": sorted(self.server.breakers.open_names()),
            "breaker_opened": stats["counters"].get("breaker_opened", 0),
            "queue_size": stats["queue"]["size"],
        })

    def _sample_up_to(self, at: float) -> None:
        while (self._sampled_boundaries + 1) * self.window_seconds <= at:
            self._sampled_boundaries += 1
            self._sample_boundary(self._sampled_boundaries)

    # ------------------------------------------------------------------
    # fleet events
    # ------------------------------------------------------------------
    def _fire_events_up_to(self, at: float) -> None:
        while (len(self._fired) < len(self._events)
               and self._events[len(self._fired)].at <= at):
            event = self._events[len(self._fired)]
            row: dict[str, Any] = {"at": event.at, "action": event.action,
                                   "shard": event.shard, "fired_at": at}
            self._fired.append(row)
            try:
                if event.action == "kill":
                    self.server.kill_shard(event.shard)
                elif event.action == "add":
                    row["result"] = self.server.add_shard()
                else:
                    row["result"] = self.server.remove_shard(event.shard)
            except ChatGraphError as exc:
                # a refused reshape leaves the old ring serving: record
                # it for the gates and keep replaying the schedule
                row["error"] = f"{type(exc).__name__}: {exc}"

    # ------------------------------------------------------------------
    # submission / resolution
    # ------------------------------------------------------------------
    def _submit(self, item: ScheduledRequest) -> None:
        window = self._window_of(item.at)
        scopes = self._scopes(window, item.persona)
        for agg in scopes:
            agg.submitted += 1
        try:
            pending = self.server.submit(item.request)
        except RateLimitError:
            for agg in scopes:
                agg.rejected_rate_limit += 1
            return
        except BackpressureError:
            for agg in scopes:
                agg.rejected_backpressure += 1
            return
        self._outstanding.append((pending, window, item.persona))

    def _record_response(self, response: Any, window: int,
                         persona: str) -> None:
        latency = response.service_seconds
        if self.clock is None:
            latency += response.queued_seconds
        for agg in self._scopes(window, persona):
            if response.ok:
                agg.ok += 1
            else:
                agg.errors += 1
            record = getattr(response.value, "record", None)
            if record is not None and record.is_degraded:
                agg.degraded += 1
            agg.latency.observe(latency)

    def _drain(self) -> None:
        """Resolve every outstanding request and record it."""
        for pending, window, persona in self._outstanding:
            response = pending.result(timeout=self.result_timeout)
            self._record_response(response, window, persona)
        self._outstanding = []

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run(self) -> dict[str, Any]:
        items = self.schedule.items
        if self.clock is not None:
            last_at = 0.0
            barrier_index = 0
            for item in items:
                if item.at - last_at >= self.pace_gap_seconds:
                    self._drain()
                while (barrier_index < len(self.barriers)
                        and self.barriers[barrier_index] <= item.at):
                    if self.clock() < self.barriers[barrier_index]:
                        self._drain()
                    barrier_index += 1
                last_at = item.at
                self._sample_up_to(item.at)
                self.clock.advance_to(item.at)
                self._fire_events_up_to(item.at)
                self._submit(item)
            self.clock.advance_to(self.span)
        else:
            origin = time.monotonic()
            for item in items:
                remaining = (origin + item.at) - time.monotonic()
                if remaining > 0.0:
                    self._sleep(remaining)
                self._sample_up_to(item.at)
                self._fire_events_up_to(item.at)
                self._submit(item)
        self._fire_events_up_to(self.span)
        self._drain()
        self._sample_up_to(self.span)
        # close the timeline with the post-drain end state
        self._sample_boundary(self._n_windows())
        return self._report()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _report(self) -> dict[str, Any]:
        stats = self.server.stats()
        counters = dict(stats["counters"])
        overall = self._agg("overall").to_dict()
        personas = {
            key[1]: agg.to_dict()
            for key, agg in sorted(self._aggs.items())
            if key[0] == "persona"
        }
        windows = []
        for index in range(self._n_windows()):
            window = self._agg("window", index).to_dict()
            window.update({
                "index": index,
                "start": index * self.window_seconds,
                "end": (index + 1) * self.window_seconds,
                "personas": {
                    key[2]: agg.to_dict()
                    for key, agg in sorted(self._aggs.items())
                    if key[0] == "winper" and key[1] == index
                },
            })
            windows.append(window)
        report = {
            "fake_clock": self.clock is not None,
            "duration": self.schedule.duration,
            "span": self.span,
            "window_seconds": self.window_seconds,
            "n_windows": self._n_windows(),
            "arrival": self.schedule.arrival_name,
            "seed": self.schedule.seed,
            "schedule_sha256": self.schedule.sha256(),
            "schedule_requests": len(self.schedule),
            "schedule_users": self.schedule.user_count(),
            "schedule_personas": self.schedule.persona_counts(),
            "overall": overall,
            "personas": personas,
            "windows": windows,
            "cache_hit_trajectory": self._cache_trajectory,
            "breaker_timeline": self._breaker_timeline,
            "fleet_events": self._fired,
            "counters": counters,
            "sessions": stats.get("sessions", {}),
            "rate_limiter": stats.get("rate_limiter", {}),
            "reconciliation": self._reconcile(overall, counters),
        }
        return report

    def _reconcile(self, overall: dict[str, Any],
                   counters: dict[str, Any]) -> dict[str, Any]:
        """Balance the runner's books against the server's counters.

        Exact equality requires a fresh server per soak (counters
        accumulate for the server's lifetime).
        """
        admitted_runner = overall["submitted"] - overall["rejected"]
        responses = overall["ok"] + overall["errors"]
        ops_server = sum(value for name, value in counters.items()
                         if name.startswith("op_"))
        pairs = {
            "admitted": (admitted_runner, counters.get("admitted", 0)),
            "responses": (responses, ops_server),
            "rejected_rate_limit": (
                overall["rejected_rate_limit"],
                counters.get("rejected_rate_limit", 0)),
            "rejected_backpressure": (
                overall["rejected_backpressure"],
                counters.get("rejected_backpressure", 0)),
            "failed": (overall["errors"], counters.get("failed", 0)),
        }
        return {
            **{name: {"runner": runner, "server": server}
               for name, (runner, server) in pairs.items()},
            "exact": all(runner == server
                         for runner, server in pairs.values()),
        }
