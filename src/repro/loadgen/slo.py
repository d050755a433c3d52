"""Declarative SLO gates over a soak report.

An :class:`SLOSpec` is a named tuple of :class:`SLOGate` rows, each
binding one report metric (optionally scoped to a persona) to a
``min``/``max`` bound.  Two evaluation modes:

* **final value** (default) — the gate checks the metric aggregated
  over the whole run;
* **error budget** (``window_budget`` set) — the gate checks the
  metric per window and passes while the *fraction of violating
  windows* stays within the budget.  This is how a spike scenario
  tolerates its spike windows without giving up the gate everywhere
  else.

Metrics are read from the :class:`~repro.loadgen.runner.SoakReport`
dict produced by the runner (which in turn sources its quantiles from
:class:`repro.obs.metrics.Histogram`).

This module must stay free of the :mod:`time` module entirely; the
``tests/test_clock_discipline.py`` audit pins that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import ConfigError

#: Report counters a gate may reference by name.  Server counters exist
#: only once incremented, so a listed counter missing from the report
#: reads zero; a name outside this list is rejected when the gate is
#: built, so a typo cannot pass a ``max_value`` gate by never existing.
#: The ``fleet_*`` / ``sessions_stranded`` rows are the end-of-soak
#: fleet state :func:`~repro.loadgen.scenarios.run_scenario` adds.
COUNTERS = (
    "breaker_opened",
    "shard_deaths", "shard_failovers", "shard_restarts",
    "shard_migrations", "sessions_migrated", "sessions_stranded",
    "fleet_shards_down", "fleet_breakers_open",
)

#: Metric names a gate may reference.  Latency quantiles are seconds;
#: rates are fractions in [0, 1]; counts are plain numbers.
METRICS = (
    "p50_latency", "p95_latency", "p99_latency",
    "error_rate", "degraded_rate", "rejection_rate",
    "cache_hit_rate", "breakers_recovered",
) + COUNTERS

#: Metrics that exist per window (eligible for window budgets).
_WINDOWED = ("p50_latency", "p95_latency", "p99_latency",
             "error_rate", "degraded_rate", "rejection_rate")


@dataclass(frozen=True)
class SLOGate:
    """One service-level objective."""

    metric: str
    #: Scope to one persona's traffic; ``None`` gates overall traffic.
    persona: str | None = None
    max_value: float | None = None
    min_value: float | None = None
    #: Allowed fraction of windows violating the bound (``None`` gates
    #: the final aggregate instead).
    window_budget: float | None = None

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ConfigError(
                f"unknown SLO metric {self.metric!r}; "
                f"expected one of {METRICS}")
        if self.max_value is None and self.min_value is None:
            raise ConfigError("gate needs max_value and/or min_value")
        if self.window_budget is not None:
            if self.metric not in _WINDOWED:
                raise ConfigError(
                    f"metric {self.metric!r} has no window trajectory")
            if not 0.0 <= self.window_budget <= 1.0:
                raise ConfigError("window_budget must be in [0, 1]")

    def describe(self) -> str:
        scope = self.persona or "overall"
        bounds = []
        if self.min_value is not None:
            bounds.append(f">= {self.min_value}")
        if self.max_value is not None:
            bounds.append(f"<= {self.max_value}")
        budget = (f" (budget {self.window_budget:.0%} of windows)"
                  if self.window_budget is not None else "")
        return f"{scope}.{self.metric} {' and '.join(bounds)}{budget}"


@dataclass(frozen=True)
class SLOSpec:
    """A named set of gates (the scenario's contract)."""

    name: str
    gates: tuple[SLOGate, ...]

    def __post_init__(self) -> None:
        if not self.gates:
            raise ConfigError("SLOSpec needs at least one gate")

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "gates": [{
                "metric": gate.metric, "persona": gate.persona,
                "max_value": gate.max_value,
                "min_value": gate.min_value,
                "window_budget": gate.window_budget,
            } for gate in self.gates],
        }


def _scope(report: dict[str, Any], persona: str | None) -> dict[str, Any]:
    if persona is None:
        return report["overall"]
    scoped = report["personas"].get(persona)
    if scoped is None:
        raise ConfigError(
            f"report has no persona {persona!r}; "
            f"saw {sorted(report['personas'])}")
    return scoped


def _metric_value(scoped: dict[str, Any], report: dict[str, Any],
                  metric: str) -> float:
    if metric.endswith("_latency"):
        return scoped["latency"][metric.split("_")[0]]
    if metric in ("error_rate", "degraded_rate", "rejection_rate"):
        return scoped[metric]
    # run-level metrics (persona scoping is meaningless for these)
    if metric == "cache_hit_rate":
        return report["cache_hit_trajectory"][-1] \
            if report["cache_hit_trajectory"] else 0.0
    if metric in COUNTERS:
        return float(report["counters"].get(metric, 0))
    if metric == "breakers_recovered":
        timeline = report["breaker_timeline"]
        open_at_end = timeline[-1]["open"] if timeline else []
        return 0.0 if open_at_end else 1.0
    raise ConfigError(f"unknown SLO metric {metric!r}")


def _window_values(report: dict[str, Any], gate: SLOGate) -> list[float]:
    values = []
    for window in report["windows"]:
        scoped = (window["personas"].get(gate.persona, None)
                  if gate.persona is not None else window)
        if scoped is None or not scoped.get("submitted"):
            continue  # empty window: nothing to violate
        if gate.metric.endswith("_latency"):
            values.append(scoped["latency"][gate.metric.split("_")[0]])
        else:
            values.append(scoped[gate.metric])
    return values


def _violates(value: float, gate: SLOGate) -> bool:
    if gate.max_value is not None and value > gate.max_value:
        return True
    if gate.min_value is not None and value < gate.min_value:
        return True
    return False


def evaluate_slo(report: dict[str, Any],
                 spec: SLOSpec) -> dict[str, Any]:
    """Check every gate of ``spec`` against ``report``.

    Returns ``{"name", "passed", "gates": [...]}`` where each gate row
    carries the observed value (or window violation fraction), the
    bounds, and its verdict — the block ``bench-slo`` serializes into
    its report.
    """
    rows: list[dict[str, Any]] = []
    for gate in spec.gates:
        if gate.window_budget is not None:
            values = _window_values(report, gate)
            violations = sum(1 for value in values
                             if _violates(value, gate))
            fraction = violations / len(values) if values else 0.0
            passed = fraction <= gate.window_budget
            rows.append({
                "gate": gate.describe(), "metric": gate.metric,
                "persona": gate.persona, "mode": "window-budget",
                "windows": len(values), "violations": violations,
                "violation_fraction": round(fraction, 6),
                "budget": gate.window_budget, "passed": passed,
            })
        else:
            scoped = _scope(report, gate.persona)
            value = _metric_value(scoped, report, gate.metric)
            passed = not _violates(value, gate)
            rows.append({
                "gate": gate.describe(), "metric": gate.metric,
                "persona": gate.persona, "mode": "final",
                "value": round(float(value), 6),
                "min_value": gate.min_value,
                "max_value": gate.max_value, "passed": passed,
            })
    return {"name": spec.name,
            "passed": all(row["passed"] for row in rows),
            "gates": rows}
