"""Production traffic simulation with SLO gates.

The load generator turns the serving stack into a testable production
system: parameterized user personas (:mod:`~repro.loadgen.personas`)
emit seeded request streams, open-loop arrival processes
(:mod:`~repro.loadgen.arrivals`) place them on a timeline,
:func:`build_schedule` freezes the combination into a byte-identical
:class:`Schedule`, and a :class:`SoakRunner` replays it against a
:class:`~repro.serve.engine.ChatGraphServer` — or a sharded fleet,
with timed :class:`FleetEvent` kills and reshapes — under either the
real clock or a :class:`VirtualClock`.  The resulting soak report —
latency trajectories per persona, error/rejection rates, cache-hit and
breaker timelines — is gated by declarative :class:`SLOSpec`
contracts (:func:`evaluate_slo`), and :func:`run_scenario` packages
named presets end to end (``python -m repro.cli bench-slo``).
"""

from .arrivals import (
    ArrivalProcess,
    ConstantRate,
    DiurnalSinusoid,
    PoissonBursts,
    StepSpike,
)
from .chaos import WindowedChaos
from .personas import (
    DEFAULT_PERSONAS,
    PersonaSpec,
    bench_workload,
    default_pool,
    user_requests,
)
from .runner import FleetEvent, SoakRunner, VirtualClock
from .schedule import Schedule, ScheduledRequest, build_schedule
from .scenarios import (
    SCENARIOS,
    Scenario,
    build_soak_chatgraph,
    get_scenario,
    run_scenario,
    scenario_schedule,
)
from .slo import METRICS, SLOGate, SLOSpec, evaluate_slo

__all__ = [
    "ArrivalProcess",
    "ConstantRate",
    "DiurnalSinusoid",
    "PoissonBursts",
    "StepSpike",
    "WindowedChaos",
    "DEFAULT_PERSONAS",
    "PersonaSpec",
    "bench_workload",
    "default_pool",
    "user_requests",
    "FleetEvent",
    "SoakRunner",
    "VirtualClock",
    "Schedule",
    "ScheduledRequest",
    "build_schedule",
    "SCENARIOS",
    "Scenario",
    "build_soak_chatgraph",
    "get_scenario",
    "run_scenario",
    "scenario_schedule",
    "METRICS",
    "SLOGate",
    "SLOSpec",
    "evaluate_slo",
]
