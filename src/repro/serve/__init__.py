"""repro.serve — the concurrent service runtime around ChatGraph.

The library's :class:`~repro.core.chatgraph.ChatGraph` is a synchronous
single-caller facade; this subsystem makes it a *server*:

* :mod:`engine` — :class:`ChatGraphServer`: worker pool, request
  dispatch, deterministic per-request seeding, graceful shutdown;
* :mod:`admission` — bounded queue with backpressure + per-client
  token-bucket rate limiting;
* :mod:`breaker` — per-API circuit breakers shared by the worker
  pool (closed/open/half-open with failure-rate windows + cooldown);
* :mod:`sessions` — concurrent TTL/LRU session store;
* :mod:`cache` — thread-safe content-addressed LRU caches wired into
  the pipeline's embedding, retrieval and sequentialize stages.

Counters and per-stage latency histograms live in the lifecycle's
:class:`repro.obs.MetricsRegistry` (see :mod:`repro.runtime`).

Speed is measured from outside by ``benchmarks/ledger/run.py``;
invariants under load by ``python -m repro.cli bench-slo``.
"""

from ..config import ServeConfig
from ..errors import (
    BackpressureError,
    CircuitOpenError,
    RateLimitError,
    ServeError,
)
from .admission import AdmissionQueue, RateLimiter, TokenBucket
from .breaker import BreakerRegistry, BreakerState, CircuitBreaker
from .cache import CacheStats, LRUCache, PipelineCaches
from .engine import (
    ChatGraphServer,
    PendingRequest,
    ServeRequest,
    ServeResponse,
)
from .microbatch import MicroBatcher
from .sessions import SessionEntry, SessionStore

__all__ = [
    "AdmissionQueue",
    "BackpressureError",
    "BreakerRegistry",
    "BreakerState",
    "CacheStats",
    "ChatGraphServer",
    "CircuitBreaker",
    "CircuitOpenError",
    "LRUCache",
    "MicroBatcher",
    "PendingRequest",
    "PipelineCaches",
    "RateLimitError",
    "RateLimiter",
    "ServeConfig",
    "ServeError",
    "ServeRequest",
    "ServeResponse",
    "SessionEntry",
    "SessionStore",
    "TokenBucket",
]
