"""Per-API circuit breakers for the service runtime.

A :class:`CircuitBreaker` tracks the recent outcomes of one API over a
sliding window and walks the classic three-state machine:

* **closed** — calls flow; enough failures at a high enough failure
  rate trip the breaker;
* **open** — calls are refused outright (the executor fails the step
  with :class:`~repro.errors.CircuitOpenError` without invoking the
  API) until ``cooldown_seconds`` elapse;
* **half-open** — after the cooldown up to :data:`HALF_OPEN_MAX_CALLS`
  probe calls pass through; one success closes the circuit, one
  failure re-opens it and restarts the cooldown.

:class:`BreakerRegistry` holds one breaker per API name and is shared
by every worker of a :class:`~repro.serve.engine.ChatGraphServer`, so
a persistently failing API is short-circuited for the whole fleet, not
per thread.  Both classes take an injectable ``clock`` so tests drive
the cooldown deterministically.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from typing import Any, Callable

from ..errors import ConfigError

Clock = Callable[[], float]

#: Windowed failure rate a breaker also needs, beside its failure
#: count, to trip.  Read at use, so a test patches it here.
FAILURE_RATE_THRESHOLD = 0.5
#: Probe calls a half-open breaker lets through before the first
#: outcome decides it.  Read at use, like the rate.
HALF_OPEN_MAX_CALLS = 1


class BreakerState(str, enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Sliding-window failure-rate breaker for one API.

    The circuit trips when the window holds at least
    ``failure_threshold`` failures *and* the windowed failure rate
    reaches :data:`FAILURE_RATE_THRESHOLD`.
    """

    def __init__(self, failure_threshold: int = 5,
                 window_size: int = 20,
                 cooldown_seconds: float = 30.0,
                 clock: Clock = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ConfigError("failure_threshold must be >= 1")
        if window_size < failure_threshold:
            raise ConfigError("window_size must be >= failure_threshold")
        if cooldown_seconds <= 0:
            raise ConfigError("cooldown_seconds must be > 0")
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._window: deque[bool] = deque(maxlen=window_size)  # True = ok
        self._state = BreakerState.CLOSED
        self._opened_at = 0.0
        self._half_open_probes = 0
        self._times_opened = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> BreakerState:
        with self._lock:
            self._maybe_half_open()
            return self._state

    @property
    def times_opened(self) -> int:
        with self._lock:
            return self._times_opened

    def _maybe_half_open(self) -> None:
        # caller holds the lock
        if self._state is BreakerState.OPEN and \
                self._clock() - self._opened_at >= self.cooldown_seconds:
            self._state = BreakerState.HALF_OPEN
            self._half_open_probes = 0

    def _trip(self) -> None:
        # caller holds the lock
        self._state = BreakerState.OPEN
        self._opened_at = self._clock()
        self._times_opened += 1

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Whether a call may proceed right now (may consume a probe)."""
        with self._lock:
            self._maybe_half_open()
            if self._state is BreakerState.OPEN:
                return False
            if self._state is BreakerState.HALF_OPEN:
                if self._half_open_probes >= HALF_OPEN_MAX_CALLS:
                    return False
                self._half_open_probes += 1
            return True

    def retry_after(self) -> float:
        """Seconds until the next half-open probe (0 when not open)."""
        with self._lock:
            if self._state is not BreakerState.OPEN:
                return 0.0
            remaining = self.cooldown_seconds - \
                (self._clock() - self._opened_at)
            return max(0.0, remaining)

    def record_success(self) -> None:
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._state = BreakerState.CLOSED
                self._window.clear()
                return
            self._window.append(True)

    def record_failure(self) -> bool:
        """Record one failure; True when this call opened the circuit."""
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._trip()
                return True
            if self._state is BreakerState.OPEN:
                return False
            self._window.append(False)
            failures = sum(1 for ok in self._window if not ok)
            rate = failures / len(self._window)
            if failures >= self.failure_threshold and \
                    rate >= FAILURE_RATE_THRESHOLD:
                self._trip()
                return True
            return False

    def trip(self) -> bool:
        """Force the circuit open now; True when this call opened it.

        The window-based path infers failure from call outcomes; this
        is the externally-observed path — the shard coordinator trips a
        dead shard's breaker directly on heartbeat timeout or pipe EOF,
        where no "call" ever failed.
        """
        with self._lock:
            if self._state is BreakerState.OPEN:
                return False
            self._trip()
            return True

    def reset(self) -> None:
        with self._lock:
            self._state = BreakerState.CLOSED
            self._window.clear()
            self._half_open_probes = 0

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            self._maybe_half_open()
            failures = sum(1 for ok in self._window if not ok)
            return {
                "state": self._state.value,
                "window": len(self._window),
                "failures": failures,
                "times_opened": self._times_opened,
            }


class BreakerRegistry:
    """One :class:`CircuitBreaker` per API name, created lazily.

    Implements the duck-typed breaker interface the
    :class:`~repro.apis.executor.ChainExecutor` consumes:
    ``allow(name)``, ``record_success(name)``, ``record_failure(name)``
    (returning True when the circuit opened) and ``retry_after(name)``.
    """

    def __init__(self, failure_threshold: int = 5,
                 window_size: int = 20,
                 cooldown_seconds: float = 30.0,
                 clock: Clock = time.monotonic) -> None:
        self._kwargs = dict(
            failure_threshold=failure_threshold,
            window_size=window_size,
            cooldown_seconds=cooldown_seconds,
            clock=clock,
        )
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def breaker(self, api_name: str) -> CircuitBreaker:
        # a dict read is atomic under the GIL and a breaker, once
        # created, is never replaced, so only a missing one takes the
        # registry lock
        breaker = self._breakers.get(api_name)
        if breaker is not None:
            return breaker
        with self._lock:
            breaker = self._breakers.get(api_name)
            if breaker is None:
                breaker = CircuitBreaker(**self._kwargs)
                self._breakers[api_name] = breaker
            return breaker

    def allow(self, api_name: str) -> bool:
        return self.breaker(api_name).allow()

    def retry_after(self, api_name: str) -> float:
        return self.breaker(api_name).retry_after()

    def record_success(self, api_name: str) -> None:
        self.breaker(api_name).record_success()

    def record_failure(self, api_name: str) -> bool:
        return self.breaker(api_name).record_failure()

    def trip(self, api_name: str) -> bool:
        """Force ``api_name``'s circuit open; True when it just opened."""
        return self.breaker(api_name).trip()

    def reset_one(self, api_name: str) -> None:
        """Close ``api_name``'s circuit, if it has one (a replaced shard
        starts clean)."""
        with self._lock:
            breaker = self._breakers.get(api_name)
        if breaker is not None:
            breaker.reset()

    def reset(self) -> None:
        with self._lock:
            for breaker in self._breakers.values():
                breaker.reset()

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Per-API breaker states (only APIs that saw traffic)."""
        with self._lock:
            breakers = dict(self._breakers)
        return {name: breaker.snapshot()
                for name, breaker in sorted(breakers.items())}

    def open_names(self) -> list[str]:
        with self._lock:
            breakers = dict(self._breakers)
        return [name for name, breaker in sorted(breakers.items())
                if breaker.state is BreakerState.OPEN]
