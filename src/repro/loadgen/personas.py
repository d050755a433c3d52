"""Parameterized user archetypes: *what* each simulated user does.

A :class:`PersonaSpec` describes one archetype — how many turns a user
makes, how long they think between turns, whether they hold a session,
which graphs and prompts they draw from — and :func:`user_requests`
turns one spec into a deterministic timed stream of
:class:`~repro.serve.engine.ServeRequest` objects.  All randomness
comes from the per-user :class:`random.Random` the scheduler seeds
with ``(seed, persona, user-index)``, so the same population under the
same seed always emits byte-identical traffic regardless of how many
other personas exist.

The default mix (:data:`DEFAULT_PERSONAS`) models the heterogeneous
population the ROADMAP names: one-shot askers, long multi-turn
sessions, upload-heavy graph ingestors, and bursty power users.

This module must stay free of the :mod:`time` module entirely (virtual
time only); ``tests/test_clock_discipline.py`` audits that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from ..errors import ConfigError
from ..graphs.graph import Graph
from ..serve.engine import ServeRequest
from ..testing.workloads import PROMPTS, bench_graphs, demo_graph_pool

__all__ = [
    "DEFAULT_PERSONAS",
    "PersonaSpec",
    "TimedRequest",
    "bench_workload",
    "pick_persona",
    "user_requests",
]


@dataclass(frozen=True)
class PersonaSpec:
    """One user archetype, fully determined by its parameters."""

    #: Stable identifier (appears in schedules, reports, SLO gates).
    name: str
    #: Relative share of arriving users drawn as this persona.
    weight: float
    #: Operation every turn issues (``ask`` or ``propose``).
    op: str = "ask"
    #: Inclusive ``(min, max)`` number of turns per user.
    turns: tuple[int, int] = (1, 1)
    #: Mean of the exponential think time between turns (0 = back to
    #: back).
    think_mean_seconds: float = 0.0
    #: Turns emitted per burst before a full think-time pause; within a
    #: burst consecutive turns are ``burst_gap_seconds`` apart.
    burst_size: int = 1
    burst_gap_seconds: float = 0.0
    #: Bind all turns of one user to a per-user ``session_id``; every
    #: turn re-attaches the user's graph, so the dialog survives a
    #: first turn shed under overload.
    session: bool = False
    #: Demo-graph pool keys this persona uploads
    #: (:func:`repro.testing.workloads.demo_graph_pool`).
    graph_keys: tuple[str, ...] = ("social-s", "kg-s")
    #: Prompt pool sampled per turn.
    prompts: tuple[str, ...] = PROMPTS
    #: Fraction of turns that reference a named graph in the server's
    #: durable catalog instead of uploading inline (used only when the
    #: scheduler is given catalog names).
    catalog_share: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in ("ask", "propose"):
            raise ConfigError(
                f"persona op must be ask or propose, got {self.op!r}")
        if self.weight <= 0.0:
            raise ConfigError("weight must be > 0")
        lo, hi = self.turns
        if not 1 <= lo <= hi:
            raise ConfigError("turns must satisfy 1 <= min <= max")
        if self.think_mean_seconds < 0.0:
            raise ConfigError("think_mean_seconds must be >= 0")
        if self.burst_size < 1:
            raise ConfigError("burst_size must be >= 1")
        if self.burst_gap_seconds < 0.0:
            raise ConfigError("burst_gap_seconds must be >= 0")
        if not self.graph_keys:
            raise ConfigError("graph_keys must not be empty")
        if not self.prompts:
            raise ConfigError("prompts must not be empty")
        if not 0.0 <= self.catalog_share <= 1.0:
            raise ConfigError("catalog_share must be in [0, 1]")
        if self.session and self.op != "ask":
            raise ConfigError("session personas must use op='ask'")


#: The default heterogeneous population (weights sum to 1.0, but only
#: the ratios matter).
DEFAULT_PERSONAS: tuple[PersonaSpec, ...] = (
    PersonaSpec(name="one_shot", weight=0.50),
    PersonaSpec(name="multi_turn", weight=0.25, turns=(3, 8),
                think_mean_seconds=20.0, session=True,
                graph_keys=("social-m", "kg-m")),
    PersonaSpec(name="ingestor", weight=0.10, op="propose", turns=(2, 4),
                think_mean_seconds=8.0,
                graph_keys=("social-l", "kg-l"), catalog_share=0.5),
    PersonaSpec(name="power_burst", weight=0.15, turns=(6, 12),
                think_mean_seconds=45.0, burst_size=4,
                burst_gap_seconds=0.05,
                graph_keys=("social-s", "social-m", "kg-s")),
)


@dataclass(frozen=True)
class TimedRequest:
    """One persona turn: a request and when (virtually) it is issued."""

    at: float
    seq: int
    request: ServeRequest
    #: Pool key or ``name:<catalog-name>`` — the stable label
    #: serialized into schedule bytes.
    graph_key: str


def pick_persona(specs: tuple[PersonaSpec, ...],
                 rng: random.Random) -> PersonaSpec:
    """Weighted draw of one persona (deterministic under the rng)."""
    if not specs:
        raise ConfigError("population needs at least one persona")
    total = sum(spec.weight for spec in specs)
    point = rng.random() * total
    cumulative = 0.0
    for spec in specs:
        cumulative += spec.weight
        if point < cumulative:
            return spec
    return specs[-1]


def user_requests(spec: PersonaSpec, user_id: str, start: float,
                  rng: random.Random, pool: dict[str, Graph],
                  catalog_names: tuple[str, ...] = ()
                  ) -> Iterator[TimedRequest]:
    """The full timed request stream of one simulated user.

    ``rng`` must be dedicated to this user (the scheduler derives it
    from ``(seed, persona, user-index)``); every draw below consumes it
    in a fixed order, which is what makes schedules byte-identical
    under a fixed seed.
    """
    n_turns = rng.randint(*spec.turns)
    at = start
    session_key: str | None = None
    for seq in range(n_turns):
        text = rng.choice(spec.prompts)
        graph: Graph | None = None
        graph_name: str | None = None
        if session_key is not None:
            # later session turns re-attach the same graph (clients
            # keep the upload bound to the dialog); if the first turn
            # was shed under overload, follow-ups still carry context
            # instead of chaining over an empty session
            graph_key = session_key
            graph = pool[graph_key]
        elif (catalog_names and spec.catalog_share > 0.0
                and rng.random() < spec.catalog_share):
            graph_name = catalog_names[
                rng.randrange(len(catalog_names))]
            graph_key = f"name:{graph_name}"
        else:
            graph_key = spec.graph_keys[
                rng.randrange(len(spec.graph_keys))]
            graph = pool[graph_key]
            if spec.session:
                session_key = graph_key
        yield TimedRequest(
            at=at, seq=seq,
            request=ServeRequest(
                op=spec.op, text=text, graph=graph,
                graph_name=graph_name,
                session_id=user_id if spec.session else None,
                client_id=user_id),
            graph_key=graph_key)
        if (seq + 1) % spec.burst_size != 0:
            at += spec.burst_gap_seconds
        elif spec.think_mean_seconds > 0.0:
            at += rng.expovariate(1.0 / spec.think_mean_seconds)


def bench_workload(n_requests: int,
                   n_graphs: int = 4) -> list[ServeRequest]:
    """A fixed request stream for serving tests.

    The degenerate persona: zero think time, one ``propose`` per user,
    prompts and graphs cycled round-robin from the shared pools in
    :mod:`repro.testing.workloads`.
    """
    graphs = bench_graphs(n_graphs)
    return [
        ServeRequest(op="propose",
                     text=PROMPTS[index % len(PROMPTS)],
                     graph=graphs[index % len(graphs)],
                     client_id=f"client-{index % 4}")
        for index in range(n_requests)
    ]


def default_pool() -> dict[str, Graph]:
    """The demo-graph pool personas draw from (built fresh)."""
    return demo_graph_pool()
