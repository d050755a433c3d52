"""repro.testing — offline test harnesses for robustness and tracing.

* :mod:`faults` — deterministic fault injection: wrap registry API
  specs so they raise seeded exceptions or sleep injected delays,
  making timeouts, retries, breakers and degradation testable without
  a flaky backend; :func:`slow_chatgraph` holds a serve worker busy.
* :mod:`workloads` — the canonical seeded prompts/graphs shared by the
  golden-trace regression tests and the ``trace --demo`` CLI.
"""

from .faults import (
    FaultInjector,
    FaultSpec,
    chaos_registry,
    slow_chatgraph,
)
from .workloads import CANONICAL_PROMPTS, canonical_graph, canonical_workload

__all__ = [
    "CANONICAL_PROMPTS",
    "FaultInjector",
    "FaultSpec",
    "canonical_graph",
    "canonical_workload",
    "chaos_registry",
    "slow_chatgraph",
]
