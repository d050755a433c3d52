"""The sharded serving facade over the unified request-plane runtime.

:class:`ShardedChatGraphServer` fronts N shard worker *processes* (see
:mod:`repro.shard.worker`) behind the exact submit/stats surface of the
in-process :class:`~repro.serve.engine.ChatGraphServer`, so the soak
runner and callers drive either one unchanged.  Both inherit that
surface from :class:`~repro.serve.engine.ServerFacade` and run on the
same :class:`~repro.runtime.lifecycle.RequestLifecycle`; this one
plugs in the :class:`~repro.runtime.shard.ShardBackend`, which owns
the consistent-hash routing, per-request forwarding, failure handling
and live fleet reshaping (see that module for the mechanics).

Admission, rate limiting, stats and the reply edge are the lifecycle's
— a traffic spike fills the one admission queue and sheds with the
same BackpressureError a single-process caller would see, and every
admitted request resolves exactly once through the shared reply path,
which is what makes ledger reconciliation against a workload exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..config import ServeConfig
from ..errors import ServeError
from ..serve.engine import ServeRequest, ServerFacade

__all__ = ["ShardModelSpec", "ShardedChatGraphServer"]


@dataclass(frozen=True)
class ShardModelSpec:
    """Value-only recipe every shard uses to rebuild the same model.

    Carrying values instead of objects is what makes the tier
    deterministic: each process applies the same pretraining recipe and
    arrives at identical weights, so any shard's answer to a
    content-seeded request is byte-identical to any other's (and to the
    single-process server's).
    """

    corpus_size: int = 600
    seed: int = 0

    def to_wire(self) -> dict[str, Any]:
        return {"corpus_size": self.corpus_size, "seed": self.seed}


class ShardedChatGraphServer(ServerFacade):
    """Routing front end over shard worker processes.

    Drop-in for :class:`~repro.serve.engine.ChatGraphServer` from the
    caller's side: the inherited ``submit``/``request``/``ask``/
    ``propose``, the same admission errors, the same ``stats()``
    sections (with a live ``"shards"`` section).  ``op="execute"`` is
    the one surface that does not shard — a
    :class:`~repro.core.pipeline.PipelineResult` holds live pipeline
    objects that cannot cross a process boundary — and is rejected at
    submit.

    :meth:`add_shard` / :meth:`remove_shard` reshape the fleet live:
    pinned sessions — dialog and uploaded graph — migrate to their new
    ring-preferred shards with zero lost requests (see
    :mod:`repro.runtime.migration`).
    """

    def __init__(self, model: ShardModelSpec,
                 config: ServeConfig | None = None,
                 clock: Any = None) -> None:
        config = config or ServeConfig(shards=2)
        if config.shards < 1:
            raise ServeError(
                "ShardedChatGraphServer needs ServeConfig.shards >= 1")
        from ..runtime import ShardBackend

        self.model = model
        super().__init__(config, ShardBackend(model.to_wire()), clock)

    @property
    def ring(self) -> Any:
        return self.backend.ring

    @property
    def handles(self) -> list[Any]:
        return self.backend.handles

    # ------------------------------------------------------------------
    # routing / fleet management
    # ------------------------------------------------------------------
    @staticmethod
    def routing_key(request: ServeRequest) -> str:
        """The consistent-hash key of one request (see the backend)."""
        from ..runtime import ShardBackend

        return ShardBackend.routing_key(request)

    def kill_shard(self, index: int) -> None:
        """Hard-kill one worker (chaos hook; SIGKILL, no goodbye)."""
        self.backend.kill_shard(index)

    def add_shard(self) -> dict[str, Any]:
        """Grow the fleet by one shard, live.  Returns the migration
        report (planned moves, sessions migrated, the new ring)."""
        return self.backend.add_shard()

    def remove_shard(self, index: int) -> dict[str, Any]:
        """Shrink the fleet by one shard, live, after migrating its
        pinned sessions to the survivors.  Returns the migration
        report."""
        return self.backend.remove_shard(index)

    def collect_spans(self) -> list[dict[str, Any]]:
        """One merged structural trace across the process boundary."""
        return self.backend.collect_spans()
