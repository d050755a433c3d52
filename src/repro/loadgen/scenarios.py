"""Named soak scenarios: arrival shape + serve config + SLO contract.

A :class:`Scenario` bundles everything one soak needs — the arrival
process, the persona population, the server configuration, an optional
chaos window, optional timed fleet events, and the
:class:`~repro.loadgen.slo.SLOSpec` the run is gated on.  Five presets
cover the production shapes the ROADMAP names:

* ``steady``  — constant arrivals, no faults: the baseline contract
  (zero errors, zero shed load, flat latency).
* ``diurnal`` — sinusoidal day/night arrivals with per-client rate
  limiting and short session TTLs, so peak traffic exercises the token
  buckets and the troughs exercise TTL eviction.
* ``spike``   — a step overload aligned with a chaos brownout of every
  API: the run must shed load via admission backpressure, trip
  breakers, degrade the affected responses, and *recover* once the
  spike passes — the breaker/degradation/fallback story end to end.
* ``shard-kill`` — the same step overload against a 3-shard fleet with
  shard 0 SIGKILLed mid-spike: the death is detected, its breaker
  trips, orphans fail over, the shard restarts, and the books still
  reconcile exactly.
* ``shard-reshape`` — a steady sessioned soak on a 2-shard fleet that
  gains a shard one third in and loses shard 0 two thirds in: sessions
  migrate along ring preference, none is stranded, nothing errors.

:func:`run_scenario` builds the schedule, the (optionally
chaos-wrapped) ChatGraph, a fresh server — a
:class:`~repro.shard.ShardedChatGraphServer` when
``scenario.serve.shards`` is set, the in-process server otherwise —
and a :class:`~repro.loadgen.runner.SoakRunner`, then attaches the SLO
verdict to the report.  Under the default fake clock a full scenario
runs in seconds and is deterministic; ``fake_clock=False`` replays the
same schedule against the real clock.
"""

from __future__ import annotations

import dataclasses
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

from ..config import ServeConfig
from ..errors import ConfigError
from .arrivals import (
    ArrivalProcess,
    ConstantRate,
    DiurnalSinusoid,
    StepSpike,
)
from .chaos import WindowedChaos
from .personas import DEFAULT_PERSONAS, PersonaSpec, default_pool
from .runner import FleetEvent, SoakRunner, VirtualClock
from .schedule import Schedule, build_schedule
from .slo import SLOGate, SLOSpec, evaluate_slo

__all__ = ["SCENARIOS", "Scenario", "build_soak_chatgraph",
           "get_scenario", "run_scenario", "scenario_schedule"]

#: Scenario names ``bench-slo --scenario all`` runs (``smoke`` is the
#: extra real-clock sanity preset, addressable by name).
SCENARIOS = ("steady", "diurnal", "spike", "shard-kill", "shard-reshape")

#: Real-time ceiling on post-soak fleet recovery (a restart is a real
#: process spawn + model rebuild; the virtual clock cannot compress it).
RECOVERY_TIMEOUT_SECONDS = 60.0


@dataclass(frozen=True)
class Scenario:
    """One fully specified soak: traffic in, SLO contract out."""

    name: str
    description: str
    duration: float
    window_seconds: float
    arrival: ArrivalProcess
    serve: ServeConfig
    slo: SLOSpec
    personas: tuple[PersonaSpec, ...] = DEFAULT_PERSONAS
    chaos: WindowedChaos | None = None
    #: Demo-pool keys published into a temporary durable catalog so
    #: personas with ``catalog_share > 0`` emit named-graph traffic.
    catalog_graphs: tuple[str, ...] = ()
    #: Timed kill/add/remove-shard events (``serve.shards`` must be set).
    events: tuple[FleetEvent, ...] = ()
    quick: bool = field(default=False, compare=False)


def _steady(quick: bool) -> Scenario:
    duration = 90.0 if quick else 300.0
    return Scenario(
        name="steady",
        description="constant arrivals, no faults: the baseline "
                    "contract of zero errors and flat latency",
        duration=duration,
        window_seconds=30.0,
        arrival=ConstantRate(rate=0.4 if quick else 1.0),
        serve=ServeConfig(workers=4, queue_depth=512),
        catalog_graphs=("social-m", "kg-m"),
        slo=SLOSpec(name="steady", gates=(
            SLOGate(metric="error_rate", max_value=0.0),
            SLOGate(metric="degraded_rate", max_value=0.0),
            SLOGate(metric="rejection_rate", max_value=0.0),
            SLOGate(metric="p95_latency", max_value=2.0),
            SLOGate(metric="p99_latency", max_value=5.0),
            SLOGate(metric="p95_latency", persona="one_shot",
                    max_value=2.0),
            SLOGate(metric="breaker_opened", max_value=0.0),
            # the prompt/graph mix repeats, so a healthy retrieval
            # cache must warm well past this floor (observed ~0.9)
            SLOGate(metric="cache_hit_rate", min_value=0.3),
        )),
        quick=quick,
    )


def _diurnal(quick: bool) -> Scenario:
    duration = 180.0 if quick else 1200.0
    return Scenario(
        name="diurnal",
        description="sinusoidal day/night arrivals with per-client "
                    "rate limits and short session TTLs",
        duration=duration,
        window_seconds=30.0 if quick else 60.0,
        arrival=DiurnalSinusoid(
            base_rate=0.3 if quick else 0.5,
            amplitude=0.8,
            period_seconds=90.0 if quick else 600.0),
        serve=ServeConfig(
            workers=4, queue_depth=512,
            rate_limit_capacity=3,
            rate_limit_refill_per_second=0.5,
            session_ttl_seconds=45.0 if quick else 180.0),
        catalog_graphs=("social-m", "kg-m"),
        slo=SLOSpec(name="diurnal", gates=(
            SLOGate(metric="error_rate", max_value=0.0),
            SLOGate(metric="degraded_rate", max_value=0.0),
            # the power-burst persona is *expected* to hit its token
            # bucket at peak; the budget bounds how much is shed
            SLOGate(metric="rejection_rate", max_value=0.25),
            SLOGate(metric="p95_latency", max_value=2.0,
                    window_budget=0.25),
            SLOGate(metric="breaker_opened", max_value=0.0),
        )),
        quick=quick,
    )


def _spike(quick: bool) -> Scenario:
    duration = 120.0 if quick else 240.0
    spike_start = 30.0 if quick else 60.0
    spike_end = spike_start + 15.0
    return Scenario(
        name="spike",
        description="step overload aligned with an all-API chaos "
                    "brownout: shed, degrade, trip breakers, recover",
        duration=duration,
        window_seconds=15.0,
        arrival=StepSpike(
            base_rate=0.25,
            spike_rate=5.0 if quick else 8.0,
            spike_start=spike_start,
            spike_end=spike_end),
        serve=ServeConfig(
            workers=2, queue_depth=8,
            step_max_retries=1,
            retry_backoff_seconds=0.002,
            breaker_failure_threshold=3,
            breaker_window=10,
            breaker_cooldown_seconds=20.0 if quick else 30.0),
        chaos=WindowedChaos(
            start=spike_start, end=spike_end,
            api_names=None, failure_rate=1.0,
            delay_seconds=0.004),
        slo=SLOSpec(name="spike", gates=(
            # the contract is the *recovery story*, not zero faults:
            # breakers must trip, load must shed, and by the end no
            # circuit may still be open
            SLOGate(metric="breaker_opened", min_value=1.0),
            SLOGate(metric="breakers_recovered", min_value=1.0),
            SLOGate(metric="rejection_rate", min_value=0.001,
                    max_value=0.9),
            SLOGate(metric="error_rate", max_value=0.1,
                    window_budget=0.25),
            # the error budget: the brownout and the breaker cooldown
            # may degrade up to ~a third of the windows, no more
            SLOGate(metric="degraded_rate", max_value=0.05,
                    window_budget=0.35),
            SLOGate(metric="p95_latency", max_value=5.0),
        )),
        quick=quick,
    )


def _smoke(quick: bool) -> Scenario:
    """Tiny constant-rate run, sized for a real-clock sanity pass."""
    return Scenario(
        name="smoke",
        description="ten seconds of constant arrivals from quick-"
                    "thinking personas: the real-clock sanity pass",
        duration=10.0,
        window_seconds=5.0,
        arrival=ConstantRate(rate=1.5),
        serve=ServeConfig(workers=2, queue_depth=64),
        # the default population thinking 40x faster: a real clock
        # sleeps through every think time, and at the default 20-45 s
        # means sessions trail two minutes past a ten-second window
        personas=tuple(dataclasses.replace(
            spec, think_mean_seconds=spec.think_mean_seconds / 40.0)
            for spec in DEFAULT_PERSONAS),
        slo=SLOSpec(name="smoke", gates=(
            SLOGate(metric="error_rate", max_value=0.0),
            SLOGate(metric="rejection_rate", max_value=0.0),
            SLOGate(metric="p95_latency", max_value=5.0),
        )),
        quick=quick,
    )


def _catalog_names(pool_keys: tuple[str, ...]) -> tuple[str, ...]:
    """Catalog names the demo-pool graphs are published under."""
    return tuple(f"demo-{key}" for key in pool_keys)


_FLEET_CATALOG = ("social-m", "kg-m")


def _fleet_config(shards: int, queue_depth: int) -> ServeConfig:
    # both fleet soaks: one worker thread per shard, at most
    # shards x queue_depth requests routed and unanswered, and both
    # catalog graphs hot on two replicas
    return ServeConfig(
        shards=shards, workers=1, queue_depth=queue_depth,
        shard_hot_graphs=_catalog_names(_FLEET_CATALOG))


#: What every fleet soak must end with: the whole ring alive, no breaker
#: open (after the bounded recovery wait) — exact ledger reconciliation
#: is checked for every scenario by ``bench-slo`` itself.
_FLEET_HEALTHY = (
    SLOGate(metric="fleet_shards_down", max_value=0.0),
    SLOGate(metric="fleet_breakers_open", max_value=0.0),
)


def _shard_kill(quick: bool) -> Scenario:
    duration = 75.0 if quick else 120.0
    spike_start = 25.0 if quick else 30.0
    spike_end = spike_start + 15.0
    return Scenario(
        name="shard-kill",
        description="step overload on a 3-shard fleet with shard 0 "
                    "SIGKILLed mid-spike: detect, fail over, restart",
        duration=duration,
        window_seconds=15.0,
        arrival=StepSpike(base_rate=0.25, spike_rate=8.0,
                          spike_start=spike_start, spike_end=spike_end),
        serve=_fleet_config(shards=3, queue_depth=8),
        catalog_graphs=_FLEET_CATALOG,
        events=(FleetEvent(at=(spike_start + spike_end) / 2.0,
                           action="kill", shard=0),),
        slo=SLOSpec(name="shard-kill", gates=(
            SLOGate(metric="error_rate", max_value=0.02),
            SLOGate(metric="rejection_rate", min_value=0.001,
                    max_value=0.9),
            SLOGate(metric="p95_latency", max_value=1.0),
            SLOGate(metric="shard_deaths", min_value=1.0, max_value=1.0),
            SLOGate(metric="breaker_opened", min_value=1.0),
            SLOGate(metric="shard_failovers", min_value=1.0),
            SLOGate(metric="shard_restarts", min_value=1.0),
        ) + _FLEET_HEALTHY),
        quick=quick,
    )


def _shard_reshape(quick: bool) -> Scenario:
    duration = 45.0 if quick else 90.0
    return Scenario(
        name="shard-reshape",
        description="steady sessioned soak on a 2-shard fleet reshaped "
                    "live: add a shard at T/3, remove shard 0 at 2T/3",
        duration=duration,
        window_seconds=15.0,
        arrival=ConstantRate(rate=1.5 if quick else 2.0),
        serve=_fleet_config(shards=2, queue_depth=32),
        catalog_graphs=_FLEET_CATALOG,
        events=(FleetEvent(at=duration / 3.0, action="add"),
                FleetEvent(at=2.0 * duration / 3.0, action="remove",
                           shard=0)),
        slo=SLOSpec(name="shard-reshape", gates=(
            SLOGate(metric="error_rate", max_value=0.0),
            SLOGate(metric="p95_latency", max_value=1.0),
            SLOGate(metric="shard_migrations", min_value=2.0,
                    max_value=2.0),
            SLOGate(metric="sessions_migrated", min_value=1.0),
            SLOGate(metric="sessions_stranded", max_value=0.0),
        ) + _FLEET_HEALTHY),
        quick=quick,
    )


_BUILDERS = {"steady": _steady, "diurnal": _diurnal, "spike": _spike,
             "shard-kill": _shard_kill, "shard-reshape": _shard_reshape,
             "smoke": _smoke}


def get_scenario(name: str, quick: bool = False) -> Scenario:
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ConfigError(f"unknown scenario {name!r}; expected one of "
                          f"{tuple(_BUILDERS)}")
    return builder(quick)


def build_soak_chatgraph(chaos: WindowedChaos | None = None,
                         corpus_size: int = 200,
                         seed: int = 0) -> Any:
    """A finetuned ChatGraph, optionally over a chaos-wrapped registry.

    Chaos must wrap the registry *before* the model trains over it, so
    the build goes registry -> wrap -> finetune (the same shape as the
    chaos CLI).  With the chaos window inactive the wrapped registry is
    a pass-through, so training sees normal behavior.
    """
    from ..apis.registry import default_registry
    from ..core.chatgraph import ChatGraph
    from ..finetune.dataset import CorpusSpec

    if chaos is None:
        return ChatGraph.pretrained(corpus_size=corpus_size, seed=seed)
    chatgraph = ChatGraph(registry=chaos.wrap_registry(default_registry()))
    chatgraph.finetune(CorpusSpec(n_examples=corpus_size, seed=seed))
    return chatgraph


def scenario_schedule(scenario: Scenario, seed: int = 0,
                      pool: Any = None) -> Schedule:
    """The request schedule ``scenario`` replays under ``seed``."""
    return build_schedule(
        scenario.arrival, scenario.duration,
        personas=scenario.personas, seed=seed,
        pool=pool or default_pool(),
        catalog_names=_catalog_names(scenario.catalog_graphs))


def _settle_fleet(server: Any) -> dict[str, Any]:
    """The fleet's end state, after a bounded real-time recovery wait.

    Healthy means every ring member alive and no breaker open; a fleet
    already there (no kill, or the restart finished mid-soak) returns
    at once.
    """
    start = time.monotonic()
    while True:
        ring = list(server.ring.shards)
        alive = sum(1 for handle in server.handles
                    if handle.alive and not handle.retired)
        open_breakers = sorted(server.breakers.open_names())
        waited = time.monotonic() - start
        if ((alive == len(ring) and not open_breakers)
                or waited >= RECOVERY_TIMEOUT_SECONDS):
            return {"ring": ring, "alive": alive,
                    "open_breakers": open_breakers,
                    "waited_seconds": round(waited, 2)}
        time.sleep(0.1)


def run_scenario(scenario: Scenario, seed: int = 0,
                 fake_clock: bool = True, corpus_size: int = 200,
                 chatgraph: Any = None,
                 window_seconds: float | None = None) -> dict[str, Any]:
    """Execute one scenario end to end and return its gated report.

    Pass a prebuilt ``chatgraph`` to amortize finetuning across runs —
    but for chaos scenarios it must have been built over *this*
    scenario's chaos-wrapped registry (:func:`build_soak_chatgraph`).
    A sharded scenario (``scenario.serve.shards > 0``) builds no local
    model: every shard rebuilds its own from ``(corpus_size, seed)``.
    """
    sharded = scenario.serve.shards > 0
    if scenario.events and not sharded:
        raise ConfigError("fleet events need a sharded scenario "
                          "(serve.shards > 0)")
    if scenario.chaos is not None and sharded:
        raise ConfigError("API chaos wraps an in-process registry; it "
                          "cannot cross into shard workers")
    if chatgraph is None and not sharded:
        chatgraph = build_soak_chatgraph(
            chaos=scenario.chaos, corpus_size=corpus_size, seed=seed)
    pool = default_pool()
    clock = VirtualClock() if fake_clock else None
    config = scenario.serve
    tmpdir = None
    catalog = None
    try:
        if scenario.catalog_graphs:
            from ..store.catalog import GraphCatalog
            tmpdir = tempfile.TemporaryDirectory(prefix="loadgen-store-")
            catalog = GraphCatalog(tmpdir.name)
            for key, name in zip(
                    scenario.catalog_graphs,
                    _catalog_names(scenario.catalog_graphs)):
                handle = catalog.create(
                    name, directed=pool[key].directed)
                handle.ingest(pool[key])
            if sharded:
                # shard workers open the published store themselves
                catalog.close()
                catalog = None
                config = dataclasses.replace(config,
                                             store_root=tmpdir.name)
        schedule = scenario_schedule(scenario, seed, pool)
        if scenario.chaos is not None:
            scenario.chaos.reset()
            if clock is not None:
                scenario.chaos.use_clock(clock)
            else:
                # real-clock runs measure the chaos window from soak
                # start, mirroring the runner's own origin
                origin = time.monotonic()
                scenario.chaos.use_clock(
                    lambda: time.monotonic() - origin)
        if sharded:
            from ..shard import ShardedChatGraphServer, ShardModelSpec
            server: Any = ShardedChatGraphServer(
                ShardModelSpec(corpus_size=corpus_size, seed=seed),
                config, clock=clock)
        else:
            from ..serve.engine import ChatGraphServer
            server = ChatGraphServer(chatgraph, config,
                                     catalog=catalog, clock=clock)
        # the fake clock may not cross a chaos-window edge while work
        # is still outstanding: everything admitted during the window
        # must execute inside it (and pre-window work before it)
        barriers: tuple[float, ...] = ()
        if scenario.chaos is not None:
            barriers = (scenario.chaos.start, scenario.chaos.end)
        runner = SoakRunner(
            server, schedule,
            window_seconds=window_seconds or scenario.window_seconds,
            clock=clock, barriers=barriers, events=scenario.events)
        with server:
            report = runner.run()
            if sharded:
                fleet = report["fleet"] = _settle_fleet(server)
                # a restart can land during the settle wait (the soak
                # drained faster than one worker model build): read the
                # counters again once the fleet has settled
                report["counters"].update(server.stats()["counters"])
                report["counters"].update(
                    fleet_shards_down=len(fleet["ring"]) - fleet["alive"],
                    fleet_breakers_open=len(fleet["open_breakers"]),
                    sessions_stranded=sum(
                        event.get("result", {}).get("stranded", 0)
                        for event in report["fleet_events"]))
    finally:
        if scenario.chaos is not None:
            scenario.chaos.use_clock(None)
        if tmpdir is not None:
            tmpdir.cleanup()
    report["scenario"] = scenario.name
    report["description"] = scenario.description
    report["quick"] = scenario.quick
    if scenario.chaos is not None:
        report["chaos"] = scenario.chaos.stats()
    report["slo_spec"] = scenario.slo.to_dict()
    report["slo"] = evaluate_slo(report, scenario.slo)
    return report
