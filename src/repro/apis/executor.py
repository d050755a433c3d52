"""Monitored execution of API chains (paper scenario 4).

The executor walks a validated chain step by step, feeding each API the
shared :class:`ChainContext`, and emits :class:`ExecutionEvent` objects
to registered listeners — the chat session renders these as the progress
monitor the paper demonstrates in Fig. 7.

Execution is hardened by per-step policies (:class:`StepPolicy`): a
wall-clock timeout, bounded retries with exponential backoff and
deterministic seeded jitter, and an optional fallback API.  A failing
step that exhausts its budget either aborts the chain
(``stop_on_error=True`` and the policy marks it critical) or is folded
into the record's machine-readable ``degraded`` report and execution
continues.  An optional circuit-breaker registry (duck-typed; see
:mod:`repro.serve.breaker`) short-circuits calls to APIs that keep
failing across chains.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..errors import (
    ChainExecutionError,
    ChatGraphError,
    CircuitOpenError,
    StepTimeoutError,
)
from ..graphs.graph import Graph
from ..obs.trace import span
from .chain import APIChain, ChainNode
from .registry import APIRegistry, APISpec


@dataclass
class ChainContext:
    """Shared state visible to every API in a chain.

    APIs read the prompt ``graph``, optional substrates (the molecule
    ``database``, the knowledge-base ``rules``), the results of earlier
    steps, and may replace ``graph`` (edit APIs do).
    """

    #: The graph uploaded with the prompt (edit APIs mutate/replace it).
    graph: Graph | None = None
    #: Molecule database for similarity search (scenario 2).
    database: Any = None
    #: Extra substrate objects keyed by name.
    extras: dict[str, Any] = field(default_factory=dict)
    #: Results of completed steps: step index -> result.
    results: dict[int, Any] = field(default_factory=dict)
    #: API names of completed steps: step index -> name.  A step served
    #: by its fallback API keeps the *chain's* declared name, so
    #: downstream :meth:`latest` lookups keep working.
    step_names: dict[int, str] = field(default_factory=dict)
    #: Optional user-confirmation callback (cleaning scenario): receives
    #: a question string and a payload, returns True to proceed.
    confirm: Callable[[str, Any], bool] | None = None

    def latest(self, api_name: str) -> Any:
        """Most recent result produced by ``api_name`` (None if absent)."""
        for index in sorted(self.results, reverse=True):
            if self.step_names.get(index) == api_name:
                return self.results[index]
        return None

    def ask(self, question: str, payload: Any) -> bool:
        """Route a confirmation to the user; default-approve if no hook."""
        if self.confirm is None:
            return True
        return self.confirm(question, payload)


@dataclass(frozen=True)
class ExecutionEvent:
    """One progress event; the session's monitor panel renders these."""

    kind: str              # chain_started | step_started | step_finished
    #                      # | step_failed | chain_finished | chain_failed
    #                      # | step_retried | step_timed_out
    #                      # | breaker_opened
    step_index: int | None
    api_name: str | None
    elapsed_seconds: float
    detail: str = ""
    #: Total steps of the chain (set on ``chain_started``); consumers
    #: should prefer this over parsing ``detail``.
    n_steps: int | None = None
    #: Attempt number about to run (set on ``step_retried``).
    attempt: int | None = None

    def render(self) -> str:
        where = "" if self.step_index is None else \
            f" step {self.step_index} ({self.api_name})"
        suffix = f": {self.detail}" if self.detail else ""
        return f"[{self.elapsed_seconds:7.3f}s] {self.kind}{where}{suffix}"


@dataclass(frozen=True)
class StepPolicy:
    """Robustness budget of one chain step.

    ``max_retries`` extra attempts follow a failed or timed-out call,
    each after an exponential backoff with deterministic seeded jitter;
    a ``fallback_api`` (if set) gets one shot after the primary API's
    budget is exhausted.  ``critical=False`` marks a step whose final
    failure should degrade the chain instead of aborting it even under
    ``stop_on_error=True``.
    """

    #: Wall-clock limit per attempt; ``None`` disables the timeout.
    timeout_seconds: float | None = None
    #: Extra attempts after the first failure.
    max_retries: int = 0
    #: Backoff before retry ``k`` (0-based): ``base * multiplier**k``.
    backoff_base_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    #: Multiplies the backoff by ``1 + jitter_fraction * u`` with ``u``
    #: drawn from a seeded RNG, so workloads are deterministic yet
    #: retries de-synchronize.
    jitter_fraction: float = 0.1
    #: API invoked once (same timeout, no retries) when the primary API
    #: exhausts its budget or its breaker is open.
    fallback_api: str | None = None
    #: Whether exhausting the budget aborts a ``stop_on_error`` chain.
    critical: bool = True

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ChatGraphError("timeout_seconds must be > 0 or None")
        if self.max_retries < 0:
            raise ChatGraphError("max_retries must be >= 0")
        if self.backoff_base_seconds < 0:
            raise ChatGraphError("backoff_base_seconds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ChatGraphError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ChatGraphError("jitter_fraction must be in [0, 1]")

    def backoff_seconds(self, retry_index: int, rng: random.Random) -> float:
        """Delay before retry ``retry_index`` (0-based), jittered."""
        delay = self.backoff_base_seconds * \
            self.backoff_multiplier ** retry_index
        if self.jitter_fraction > 0:
            delay *= 1.0 + self.jitter_fraction * rng.random()
        return delay


@dataclass
class ExecutionPolicy:
    """Per-API step policies with a chain-wide default.

    ``seed`` drives the backoff jitter: the RNG for a step is derived
    from ``(seed, api_name, step_index)``, so a fixed workload retries
    with identical delays run after run.
    """

    default: StepPolicy = field(default_factory=StepPolicy)
    per_api: dict[str, StepPolicy] = field(default_factory=dict)
    seed: int = 0

    def for_api(self, api_name: str) -> StepPolicy:
        return self.per_api.get(api_name, self.default)

    def jitter_rng(self, api_name: str, step_index: int) -> random.Random:
        return random.Random(f"{self.seed}\x1f{api_name}\x1f{step_index}")


@dataclass
class StepRecord:
    """Outcome of one executed step."""

    index: int
    api_name: str
    result: Any
    seconds: float
    ok: bool
    error: str = ""
    #: Attempts made against the primary API (>= 1 unless the breaker
    #: short-circuited the step before any call).
    attempts: int = 1
    #: Whether the last failure was a wall-clock timeout.
    timed_out: bool = False
    #: Whether the recorded result came from the policy's fallback API.
    used_fallback: bool = False


@dataclass(frozen=True)
class DegradedStep:
    """One entry of a record's machine-readable ``degraded`` report."""

    index: int
    api_name: str
    #: ``retries_exhausted`` | ``timeout`` | ``breaker_open``
    reason: str
    attempts: int
    error: str
    #: Fallback API that was tried (and also failed), if any.
    fallback_api: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {"index": self.index, "api_name": self.api_name,
                "reason": self.reason, "attempts": self.attempts,
                "error": self.error, "fallback_api": self.fallback_api}


@dataclass
class ChainExecutionRecord:
    """Outcome of a whole chain execution."""

    chain: APIChain
    steps: list[StepRecord] = field(default_factory=list)
    ok: bool = True
    total_seconds: float = 0.0
    #: Steps that exhausted their robustness budget but did not abort
    #: the chain (graceful degradation).  Empty for a clean run.
    degraded: list[DegradedStep] = field(default_factory=list)

    @property
    def final_result(self) -> Any:
        for step in reversed(self.steps):
            if step.ok:
                return step.result
        return None

    @property
    def is_degraded(self) -> bool:
        return bool(self.degraded)

    def results_by_name(self) -> dict[str, Any]:
        """Map api_name -> last successful result."""
        out: dict[str, Any] = {}
        for step in self.steps:
            if step.ok:
                out[step.api_name] = step.result
        return out

    def degraded_report(self) -> dict[str, Any]:
        """JSON-able degradation summary for clients and logs."""
        return {
            "degraded": self.is_degraded,
            "steps": [entry.to_dict() for entry in self.degraded],
            "retries": sum(max(0, s.attempts - 1) for s in self.steps),
            "timeouts": sum(1 for s in self.steps if s.timed_out),
        }


Listener = Callable[[ExecutionEvent], None]


def _call_with_timeout(thunk: Callable[[], Any], api_name: str,
                       timeout_seconds: float | None) -> Any:
    """Run ``thunk``, cutting it off after ``timeout_seconds``.

    The call runs on a daemon thread only when a timeout is set; an
    overrunning call keeps running in the background but its result is
    discarded and :class:`StepTimeoutError` is raised to the chain.
    """
    if timeout_seconds is None:
        return thunk()
    outcome: dict[str, Any] = {}

    def runner() -> None:
        try:
            outcome["result"] = thunk()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    thread = threading.Thread(target=runner, daemon=True,
                              name=f"chain-step-{api_name}")
    thread.start()
    thread.join(timeout_seconds)
    if thread.is_alive():
        raise StepTimeoutError(api_name, timeout_seconds)
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("result")


class _StepFailure(Exception):
    """Internal: a step exhausted its whole robustness budget."""

    def __init__(self, reason: str, error: Exception, attempts: int,
                 timed_out: bool, fallback_api: str | None) -> None:
        super().__init__(str(error))
        self.reason = reason
        self.error = error
        self.attempts = attempts
        self.timed_out = timed_out
        self.fallback_api = fallback_api


class ChainExecutor:
    """Execute validated API chains with progress monitoring.

    Example::

        executor = ChainExecutor(registry)
        executor.add_listener(print_event)
        record = executor.execute(chain, ChainContext(graph=g))

    ``policy`` supplies default per-step robustness budgets (overridable
    per :meth:`execute` call); ``breakers`` is an optional per-API
    circuit-breaker registry shared across executors (any object with
    ``allow/record_success/record_failure(api_name)``, e.g.
    :class:`repro.serve.breaker.BreakerRegistry`); ``sleep`` is
    injectable so tests retry without waiting.
    """

    def __init__(self, registry: APIRegistry,
                 policy: ExecutionPolicy | None = None,
                 breakers: Any | None = None,
                 sleep: Callable[[float], None] = time.sleep,
                 tracer: Any | None = None) -> None:
        self.registry = registry
        self.policy = policy
        self.breakers = breakers
        self._sleep = sleep
        #: Optional :class:`repro.obs.Tracer`; executions then emit a
        #: ``chain`` span with ``step`` children and one ``attempt``
        #: child per call (retries included).
        self.tracer = tracer
        self._listeners: list[Listener] = []

    def add_listener(self, listener: Listener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: Listener) -> None:
        self._listeners.remove(listener)

    def listeners(self) -> tuple[Listener, ...]:
        """Snapshot of the registered listeners."""
        return tuple(self._listeners)

    def _emit(self, kind: str, start: float, step_index: int | None = None,
              api_name: str | None = None, detail: str = "",
              n_steps: int | None = None,
              attempt: int | None = None) -> None:
        event = ExecutionEvent(
            kind=kind,
            step_index=step_index,
            api_name=api_name,
            elapsed_seconds=time.perf_counter() - start,
            detail=detail,
            n_steps=n_steps,
            attempt=attempt,
        )
        # iterate a snapshot: a listener may remove itself (or another
        # thread may call remove_listener) while the event fans out
        for listener in self.listeners():
            listener(event)

    # ------------------------------------------------------------------
    # hardened single-step execution
    # ------------------------------------------------------------------
    def _guarded_call(self, spec: APISpec, context: ChainContext,
                      params: Mapping[str, Any], step_policy: StepPolicy,
                      start: float, index: int) -> Any:
        """One call: breaker gate, timeout, breaker bookkeeping."""
        name = spec.name
        if self.breakers is not None and not self.breakers.allow(name):
            raise CircuitOpenError(name, self.breakers.retry_after(name))
        try:
            result = _call_with_timeout(
                lambda: spec.call(context, **dict(params)), name,
                step_policy.timeout_seconds)
        except Exception:
            if self.breakers is not None and \
                    self.breakers.record_failure(name):
                self._emit("breaker_opened", start, index, name,
                           detail=f"circuit for {name!r} opened")
            raise
        if self.breakers is not None:
            self.breakers.record_success(name)
        return result

    def _run_step(self, index: int, node: ChainNode, spec: APISpec,
                  context: ChainContext, policy: ExecutionPolicy,
                  start: float) -> tuple[Any, int, bool]:
        """Run one step under its policy.

        Returns ``(result, attempts, used_fallback)`` or raises
        :class:`_StepFailure` once every attempt and the fallback (if
        any) are exhausted.
        """
        step_policy = policy.for_api(node.api_name)
        rng = policy.jitter_rng(node.api_name, index)
        max_attempts = 1 + step_policy.max_retries
        attempts = 0
        last_error: Exception = ChatGraphError("step never attempted")
        reason = "retries_exhausted"
        timed_out = False
        while attempts < max_attempts:
            try:
                with span(self.tracer, "attempt", kind="attempt",
                          api=node.api_name, step_index=index,
                          attempt=attempts + 1):
                    result = self._guarded_call(spec, context,
                                                node.params, step_policy,
                                                start, index)
                return result, attempts + 1, False
            except CircuitOpenError as exc:
                # retrying before the cooldown elapses cannot succeed;
                # fail (or fall back) immediately
                last_error, reason = exc, "breaker_open"
                break
            except StepTimeoutError as exc:
                attempts += 1
                last_error, reason, timed_out = exc, "timeout", True
                self._emit("step_timed_out", start, index, node.api_name,
                           detail=f"attempt {attempts} exceeded "
                                  f"{exc.timeout_seconds:.3f}s")
            except Exception as exc:  # noqa: BLE001 - APIs are user code
                attempts += 1
                last_error, timed_out = exc, False
                reason = "retries_exhausted"
            if attempts < max_attempts:
                delay = step_policy.backoff_seconds(attempts - 1, rng)
                self._emit(
                    "step_retried", start, index, node.api_name,
                    detail=f"attempt {attempts + 1}/{max_attempts} after "
                           f"{type(last_error).__name__}: {last_error}; "
                           f"backoff {delay:.3f}s",
                    attempt=attempts + 1)
                if delay > 0:
                    self._sleep(delay)
        fallback = step_policy.fallback_api
        if fallback is not None and fallback in self.registry:
            fallback_spec = self.registry.get(fallback)
            try:
                with span(self.tracer, "attempt", kind="attempt",
                          api=fallback, step_index=index,
                          attempt=attempts + 1, fallback=True):
                    result = self._guarded_call(fallback_spec, context,
                                                {}, step_policy, start,
                                                index)
                self._emit("step_retried", start, index, node.api_name,
                           detail=f"fallback {fallback!r} served the "
                                  f"step", attempt=attempts + 1)
                return result, max(attempts, 1), True
            except Exception as exc:  # noqa: BLE001 - fallback is last
                last_error = exc
        raise _StepFailure(reason, last_error, max(attempts, 1),
                           timed_out, fallback)

    # ------------------------------------------------------------------
    # chain execution
    # ------------------------------------------------------------------
    def execute(self, chain: APIChain, context: ChainContext,
                stop_on_error: bool = True,
                policy: ExecutionPolicy | None = None
                ) -> ChainExecutionRecord:
        """Run every step of ``chain`` against ``context``.

        With ``stop_on_error`` (default) a failing *critical* step
        aborts the chain and raises :class:`ChainExecutionError`; a
        failing non-critical step (see :class:`StepPolicy`) — or any
        failure under ``stop_on_error=False`` — is folded into the
        record's ``degraded`` report and execution continues.
        """
        chain.validate(self.registry)
        policy = policy or self.policy or ExecutionPolicy()
        with span(self.tracer, "chain", kind="chain",
                  n_steps=len(chain)) as chain_span:
            record = self._execute(chain, context, stop_on_error, policy,
                                   chain_span)
            chain_span.set(ok=record.ok, degraded=record.is_degraded,
                           steps_ok=sum(s.ok for s in record.steps))
        return record

    def _execute(self, chain: APIChain, context: ChainContext,
                 stop_on_error: bool, policy: ExecutionPolicy,
                 chain_span: Any) -> ChainExecutionRecord:
        record = ChainExecutionRecord(chain=chain.copy())
        start = time.perf_counter()
        self._emit("chain_started", start,
                   detail=f"{len(chain)} steps: {chain.render()}",
                   n_steps=len(chain))
        for index, node in enumerate(chain):
            spec = self.registry.get(node.api_name)
            self._emit("step_started", start, index, node.api_name)
            step_start = time.perf_counter()
            with span(self.tracer, f"step:{node.api_name}", kind="step",
                      api=node.api_name,
                      step_index=index) as step_span:
                try:
                    result, attempts, used_fallback = self._run_step(
                        index, node, spec, context, policy, start)
                except _StepFailure as failure:
                    seconds = time.perf_counter() - step_start
                    record.steps.append(StepRecord(
                        index=index, api_name=node.api_name, result=None,
                        seconds=seconds, ok=False,
                        error=str(failure.error),
                        attempts=failure.attempts,
                        timed_out=failure.timed_out))
                    record.ok = False
                    step_span.mark_error(str(failure.error))
                    step_span.set(attempts=failure.attempts,
                                  reason=failure.reason)
                    self._emit("step_failed", start, index, node.api_name,
                               detail=str(failure.error))
                    step_policy = policy.for_api(node.api_name)
                    if stop_on_error and step_policy.critical:
                        record.total_seconds = time.perf_counter() - start
                        self._emit("chain_failed", start, index,
                                   node.api_name)
                        raise ChainExecutionError(
                            node.api_name,
                            failure.error) from failure.error
                    record.degraded.append(DegradedStep(
                        index=index, api_name=node.api_name,
                        reason=failure.reason, attempts=failure.attempts,
                        error=str(failure.error),
                        fallback_api=failure.fallback_api))
                    continue
                seconds = time.perf_counter() - step_start
                context.results[index] = result
                context.step_names[index] = node.api_name
                record.steps.append(StepRecord(
                    index=index, api_name=node.api_name, result=result,
                    seconds=seconds, ok=True, attempts=attempts,
                    used_fallback=used_fallback))
                step_span.set(attempts=attempts,
                              used_fallback=used_fallback)
                self._emit("step_finished", start, index, node.api_name,
                           detail=_summarize(result))
        record.total_seconds = time.perf_counter() - start
        self._emit("chain_finished", start,
                   detail=f"{sum(s.ok for s in record.steps)}/"
                          f"{len(record.steps)} steps ok")
        return record


def _summarize(result: Any, limit: int = 70) -> str:
    text = repr(result)
    if len(text) > limit:
        text = text[:limit - 3] + "..."
    return text
