"""Admission control: bounded queue with backpressure + rate limiting.

The server never blocks a caller on a full queue.  ``submit`` on a full
:class:`AdmissionQueue` raises :class:`~repro.errors.BackpressureError`
carrying a ``retry_after`` hint derived from the observed service rate
(queue depth x recent seconds-per-request), so well-behaved clients can
back off instead of piling on.  A per-client :class:`TokenBucket` keeps
one chatty client from starving the rest.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable

from ..errors import BackpressureError, RateLimitError, ServeError

Clock = Callable[[], float]


class TokenBucket:
    """Classic token bucket: ``capacity`` burst, ``refill`` tokens/s."""

    def __init__(self, capacity: float, refill_per_second: float,
                 clock: Clock = time.monotonic) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        if refill_per_second < 0:
            raise ValueError("refill_per_second must be >= 0")
        self.capacity = float(capacity)
        self.refill_per_second = refill_per_second
        self._clock = clock
        self._tokens = float(capacity)
        self._updated = clock()
        self._lock = threading.Lock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._updated)
        self._updated = now
        self._tokens = min(self.capacity,
                           self._tokens + elapsed * self.refill_per_second)

    def try_acquire(self, tokens: float = 1.0) -> bool:
        with self._lock:
            self._refill()
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    def retry_after(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` will be available (inf if never)."""
        with self._lock:
            self._refill()
            missing = tokens - self._tokens
            if missing <= 0:
                return 0.0
            if self.refill_per_second == 0:
                return float("inf")
            return missing / self.refill_per_second

    def peek(self) -> float:
        """Current token count after refill (no tokens consumed)."""
        with self._lock:
            self._refill()
            return self._tokens


class RateLimiter:
    """Per-client token buckets, created lazily on first sight.

    A bucket that reads full is indistinguishable from a fresh one, so
    a sweep drops every such bucket: that only bounds memory (one
    bucket per client-id ever seen would otherwise grow forever).  The
    limiter sweeps at most once per ``capacity / refill_per_second``
    seconds, the time a drained bucket takes to refill; with no refill
    a used bucket never fills back, so the limiter never sweeps.
    """

    def __init__(self, capacity: float, refill_per_second: float,
                 clock: Clock = time.monotonic) -> None:
        self.capacity = capacity
        self.refill_per_second = refill_per_second
        self._sweep_seconds = (capacity / refill_per_second
                               if refill_per_second > 0 else float("inf"))
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self._last_sweep = clock()
        self._lock = threading.Lock()

    def _sweep(self, now: float) -> None:
        # caller holds the lock; at most one sweep per refill interval
        if now - self._last_sweep < self._sweep_seconds:
            return
        self._last_sweep = now
        # a drained bucket must keep its debt, so only full ones go
        for client_id, bucket in list(self._buckets.items()):
            if bucket.peek() >= self.capacity:
                del self._buckets[client_id]

    def admit(self, client_id: str) -> None:
        """Take one token for ``client_id`` or raise RateLimitError."""
        with self._lock:
            now = self._clock()
            self._sweep(now)
            bucket = self._buckets.get(client_id)
            if bucket is None:
                bucket = TokenBucket(self.capacity,
                                     self.refill_per_second,
                                     clock=self._clock)
                self._buckets[client_id] = bucket
            # under the lock, so no sweep can drop the bucket between
            # the lookup and the take and hand the client a fresh one
            admitted = bucket.try_acquire()
        if not admitted:
            raise RateLimitError(client_id, bucket.retry_after())

    def __len__(self) -> int:
        """Number of live per-client buckets (for stats and tests)."""
        with self._lock:
            return len(self._buckets)


class AdmissionQueue:
    """Bounded FIFO whose producers are rejected, never blocked.

    Consumers (worker threads) block on :meth:`get` with a timeout so
    they can notice shutdown; producers either enqueue immediately or
    get a :class:`~repro.errors.BackpressureError`.
    """

    def __init__(self, maxsize: int, clock: Clock = time.monotonic) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._clock = clock
        self._items: deque[Any] = deque()
        self._condition = threading.Condition()
        self._closed = False
        #: Exponential moving average of service seconds per request,
        #: used for the retry_after hint on rejection.
        self._ema_service_seconds = 0.05

    def put(self, item: Any) -> None:
        with self._condition:
            if self._closed:
                raise ServeError("server is not accepting requests")
            if len(self._items) >= self.maxsize:
                retry_after = self.maxsize * self._ema_service_seconds
                raise BackpressureError(retry_after=retry_after,
                                        depth=len(self._items))
            self._items.append(item)
            self._condition.notify()

    def get(self, timeout: float = 0.1) -> Any | None:
        """Next item, or None after ``timeout`` seconds (or when closed
        and drained)."""
        with self._condition:
            if not self._items:
                if self._closed:
                    return None
                self._condition.wait(timeout)
            if self._items:
                return self._items.popleft()
            return None

    def record_service_time(self, seconds: float, alpha: float = 0.2) -> None:
        """Fold one observed request-service time into the EMA."""
        with self._condition:
            self._ema_service_seconds = (
                alpha * seconds + (1 - alpha) * self._ema_service_seconds)

    def close(self) -> None:
        """Stop admitting; wake every blocked consumer."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()

    def reopen(self) -> None:
        with self._condition:
            self._closed = False

    def drain(self) -> list[Any]:
        """Remove and return everything still queued."""
        with self._condition:
            items = list(self._items)
            self._items.clear()
            return items

    @property
    def closed(self) -> bool:
        with self._condition:
            return self._closed

    def __len__(self) -> int:
        with self._condition:
            return len(self._items)
