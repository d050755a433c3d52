"""Deterministic fault injection for API registries.

The harness wraps :class:`~repro.apis.registry.APISpec` callables with
a proxy that injects failures and delays *before* delegating to the
real API:

* ``fail_times=N`` — the first N calls of the API raise
  :class:`~repro.errors.FaultInjectionError` (count-based, so the
  total number of injected failures is deterministic even under a
  multi-worker server);
* ``failure_rate=p`` — subsequent calls fail with probability ``p``
  drawn from a per-API seeded RNG (deterministic for single-threaded
  workloads; under concurrency the *sequence* of draws is fixed but
  their assignment to calls follows arrival order);
* ``delay_seconds`` — injected latency per affected call (``hang=True``
  makes the delay apply *before* the failure check, which is how a
  "hung" step that must be cut off by its timeout is modelled).

Example::

    injector = FaultInjector(seed=7)
    shaky = injector.wrap_registry(default_registry(), {
        "count_nodes": FaultSpec(fail_times=2),
        "detect_communities": FaultSpec(delay_seconds=0.5, hang=True),
    })
    executor = ChainExecutor(shaky, policy=policy)
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..apis.registry import APIRegistry, APISpec
from ..errors import ChatGraphError, FaultInjectionError

Sleep = Callable[[float], None]


@dataclass(frozen=True)
class FaultSpec:
    """Fault profile for one API."""

    #: Deterministically fail the first N calls.
    fail_times: int = 0
    #: After ``fail_times``, fail each call with this probability.
    failure_rate: float = 0.0
    #: Injected latency added to each affected call.
    delay_seconds: float = 0.0
    #: Apply the delay to the first N calls only (None = every call).
    delay_times: int | None = None
    #: With ``hang=True`` the delay runs before the failure check and
    #: before the real API — modelling a stalled backend that a step
    #: timeout must cut off.
    hang: bool = False
    #: Message carried by the injected error.
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.fail_times < 0:
            raise ChatGraphError("fail_times must be >= 0")
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ChatGraphError("failure_rate must be in [0, 1]")
        if self.delay_seconds < 0:
            raise ChatGraphError("delay_seconds must be >= 0")
        if self.delay_times is not None and self.delay_times < 0:
            raise ChatGraphError("delay_times must be >= 0 or None")


class FaultInjector:
    """Wraps API specs to inject seeded faults; tracks what it did."""

    def __init__(self, seed: int = 0, sleep: Sleep = time.sleep) -> None:
        self.seed = seed
        self._sleep = sleep
        self._lock = threading.Lock()
        self._calls: Counter = Counter()
        self._injected_failures: Counter = Counter()
        self._injected_delays: Counter = Counter()
        self._rngs: dict[str, random.Random] = {}

    # ------------------------------------------------------------------
    def _rng(self, api_name: str) -> random.Random:
        # caller holds the lock
        rng = self._rngs.get(api_name)
        if rng is None:
            rng = random.Random(f"{self.seed}\x1f{api_name}")
            self._rngs[api_name] = rng
        return rng

    def _tick(self, api_name: str, fault: FaultSpec
              ) -> tuple[int, bool, bool]:
        """Account one call: (call_index, inject_failure, inject_delay)."""
        with self._lock:
            call_index = self._calls[api_name]
            self._calls[api_name] += 1
            draw = self._rng(api_name).random()
            fail = call_index < fault.fail_times or (
                fault.failure_rate > 0.0 and draw < fault.failure_rate)
            delay = fault.delay_seconds > 0.0 and (
                fault.delay_times is None or call_index < fault.delay_times)
            if fail:
                self._injected_failures[api_name] += 1
            if delay:
                self._injected_delays[api_name] += 1
            return call_index, fail, delay

    # ------------------------------------------------------------------
    def wrap_spec(self, spec: APISpec, fault: FaultSpec) -> APISpec:
        """A copy of ``spec`` whose callable injects ``fault`` first."""
        inner = spec.func
        api_name = spec.name

        def faulty(context: Any, **kwargs: Any) -> Any:
            call_index, fail, delay = self._tick(api_name, fault)
            if delay and fault.hang:
                self._sleep(fault.delay_seconds)
            if fail:
                raise FaultInjectionError(api_name, call_index,
                                          fault.message)
            if delay and not fault.hang:
                self._sleep(fault.delay_seconds)
            return inner(context, **kwargs)

        return dataclasses.replace(spec, func=faulty)

    def wrap_registry(self, registry: APIRegistry,
                      faults: dict[str, FaultSpec]) -> APIRegistry:
        """A new registry with the named specs wrapped.

        Unlisted APIs are registered untouched, so retrieval (which
        embeds names and descriptions) behaves identically.
        """
        unknown = set(faults) - set(registry.names())
        if unknown:
            raise ChatGraphError(
                f"cannot inject faults into unknown APIs {sorted(unknown)}")
        wrapped = APIRegistry()
        for spec in registry:
            if spec.name in faults:
                wrapped.register(self.wrap_spec(spec, faults[spec.name]))
            else:
                wrapped.register(spec)
        return wrapped

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """What the injector actually did, per API."""
        with self._lock:
            return {
                "calls": dict(self._calls),
                "injected_failures": dict(self._injected_failures),
                "injected_delays": dict(self._injected_delays),
            }

    def reset(self) -> None:
        with self._lock:
            self._calls.clear()
            self._injected_failures.clear()
            self._injected_delays.clear()
            self._rngs.clear()


def chaos_registry(registry: APIRegistry, seed: int = 0,
                   n_faulty: int = 5, fail_times: int = 2,
                   injector: FaultInjector | None = None
                   ) -> tuple[APIRegistry, FaultInjector, dict[str, FaultSpec]]:
    """Seeded chaos profile: fault a deterministic sample of APIs.

    Each sampled API fails its first ``fail_times`` calls and then
    recovers — the shape the retry layer must absorb.  Returns the
    wrapped registry, the injector (for its stats) and the fault map.
    """
    injector = injector or FaultInjector(seed=seed)
    rng = random.Random(f"chaos\x1f{seed}")
    names = sorted(registry.names())
    sample = rng.sample(names, min(n_faulty, len(names)))
    faults = {name: FaultSpec(fail_times=fail_times,
                              message="chaos fault")
              for name in sorted(sample)}
    return injector.wrap_registry(registry, faults), injector, faults


@contextlib.contextmanager
def slow_chatgraph(chatgraph: Any, seconds: float) -> Iterator[None]:
    """Delay every pipeline pass of ``chatgraph`` by ``seconds`` while
    the block runs.

    How a test holds a serve worker busy (full queues, cancelled
    shutdowns, responsive stats) without a production config knob.
    ``propose`` and ``propose_batch`` are the two ways into the
    pipeline (``ask`` and an unserved ``ChatSession`` go through
    ``propose``; a server's every flush, session turns included, goes
    through ``propose_batch``) and neither calls the other — they meet
    below, in ``ChatPipeline`` — so every request pays the delay once
    and a micro-batch pays it once for all its members.
    """
    names = ("propose", "propose_batch")

    def delayed(inner: Callable[..., Any]) -> Callable[..., Any]:
        def call(*args: Any, **kwargs: Any) -> Any:
            time.sleep(seconds)
            return inner(*args, **kwargs)
        return call

    for name in names:
        setattr(chatgraph, name, delayed(getattr(chatgraph, name)))
    try:
        yield
    finally:
        for name in names:
            delattr(chatgraph, name)
