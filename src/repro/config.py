"""Configuration objects for ChatGraph (the parameters of paper Fig. 3).

The paper's configuration screen exposes two groups of parameters:

* framework parameters — for the ANN search (``tau``, ``ef_search``,
  ``top_k_apis``), the graph sequentializer (``path_length``,
  ``multi_level``), and the finetuning module (``alpha``, ``rollouts``,
  ``epochs``);
* LLM parameters — model preset name, ``max_chain_length`` and the
  random ``seed``.  The preset owns the learning rate and L2 strength
  the finetuning module trains at (:data:`repro.llm.PRESETS`).

:class:`ChatGraphConfig` groups both, validates every field, and is the
single object threaded through :class:`repro.core.chatgraph.ChatGraph`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigError

#: Model presets accepted by :attr:`LLMConfig.model`.  They mirror the three
#: LLMs the paper integrates (ChatGLM, MOSS, Vicuna); each preset selects
#: different learning dynamics (learning rate, L2) for the simulated
#: backbone.
MODEL_PRESETS = ("chatglm-sim", "moss-sim", "vicuna-sim")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class RetrievalConfig:
    """Parameters of the API retrieval module (embedding + ANN search)."""

    #: Occlusion parameter of the tau-MG index (Def. 3).  ``0.0`` degenerates
    #: to an MRNG.
    tau: float = 0.05
    #: Beam width used during greedy routing at query time.
    ef_search: int = 32
    #: Number of candidate APIs returned to the LLM.
    top_k_apis: int = 8
    #: Dimensionality of the hashed text-embedding space.
    embedding_dim: int = 128

    def __post_init__(self) -> None:
        _require(self.tau >= 0.0, "tau must be >= 0")
        _require(self.ef_search >= 1, "ef_search must be >= 1")
        _require(self.top_k_apis >= 1, "top_k_apis must be >= 1")
        _require(self.embedding_dim >= 8, "embedding_dim must be >= 8")


@dataclass(frozen=True)
class SequencerConfig:
    """Parameters of the graph sequentializer."""

    #: Maximum path length ``l`` of the length-constrained path cover.
    path_length: int = 2
    #: Whether to also feed motif super-graph sequences to the model.
    multi_level: bool = True
    #: Cap on the number of paths emitted per graph (guards the 2^l blowup).
    max_paths: int = 4096
    #: Minimum motif size considered when building the super-graph.
    min_motif_size: int = 3

    def __post_init__(self) -> None:
        _require(self.path_length >= 1, "path_length must be >= 1")
        _require(self.max_paths >= 1, "max_paths must be >= 1")
        _require(self.min_motif_size >= 2, "min_motif_size must be >= 2")


@dataclass(frozen=True)
class FinetuneConfig:
    """Parameters of the API chain-oriented finetuning module."""

    #: Weight ``alpha`` balancing the GED term and the one-to-one matching
    #: regularizer in the node matching-based loss (Def. 1).
    alpha: float = 1.0
    #: Number of random rollouts ``r`` in search-based prediction.
    rollouts: int = 4
    #: Training epochs.
    epochs: int = 5

    def __post_init__(self) -> None:
        _require(self.alpha >= 0.0, "alpha must be >= 0")
        _require(self.rollouts >= 0, "rollouts must be >= 0")
        _require(self.epochs >= 1, "epochs must be >= 1")


@dataclass(frozen=True)
class LLMConfig:
    """Parameters of the (simulated) LLM backbone."""

    #: Which preset backbone to use; see :data:`MODEL_PRESETS`.
    model: str = "chatglm-sim"
    #: Hard cap on generated API-chain length.
    max_chain_length: int = 8
    #: Seed for every stochastic component (init, shuffling, rollouts).
    seed: int = 0

    def __post_init__(self) -> None:
        _require(self.model in MODEL_PRESETS,
                 f"model must be one of {MODEL_PRESETS}, got {self.model!r}")
        _require(self.max_chain_length >= 1, "max_chain_length must be >= 1")


@dataclass(frozen=True)
class ServeConfig:
    """Parameters of the :mod:`repro.serve` service runtime.

    Standalone on purpose: serving wraps a finished
    :class:`ChatGraphConfig`-driven system, so the two configs compose
    (``ChatGraphServer(chatgraph, ServeConfig(...))``) instead of nesting.
    """

    #: Worker threads consuming the admission queue.
    workers: int = 4
    #: Bounded admission-queue depth; a full queue rejects with
    #: :class:`~repro.errors.BackpressureError` instead of blocking.
    queue_depth: int = 64
    #: Seconds a session may stay idle before TTL eviction (live
    #: sessions are also capped at ``repro.serve.sessions.MAX_SESSIONS``,
    #: least recently used evicted first).
    session_ttl_seconds: float = 600.0
    #: Master switch for the content-addressed pipeline caches.
    enable_caches: bool = True
    #: Master switch for hierarchical request tracing (off by default:
    #: span bookkeeping is cheap but not free; the metrics registry is
    #: always on because counters cost next to nothing).
    enable_tracing: bool = False
    #: Token-bucket burst capacity per client; ``0`` disables limiting.
    rate_limit_capacity: int = 0
    #: Token-bucket refill rate (tokens per second per client).  A
    #: bucket back at full is dropped at the next sweep (at most one
    #: sweep per ``capacity / refill`` seconds; none without refill).
    rate_limit_refill_per_second: float = 0.0
    #: Wall-clock limit per chain-step attempt; ``0`` disables step
    #: timeouts.
    step_timeout_seconds: float = 0.0
    #: Extra attempts after a failed/timed-out chain step.
    step_max_retries: int = 0
    #: Base backoff before the first retry (doubles per retry, with
    #: deterministic seeded jitter).
    retry_backoff_seconds: float = 0.02
    #: Failures in the sliding window needed to trip a breaker (which
    #: also needs ``repro.serve.breaker.FAILURE_RATE_THRESHOLD`` of the
    #: window to have failed).
    breaker_failure_threshold: int = 5
    #: Sliding-window length (recent calls) per API breaker.
    breaker_window: int = 20
    #: Seconds an open breaker waits before a half-open probe.
    breaker_cooldown_seconds: float = 30.0
    #: Maximum requests coalesced into one micro-batch; ``0`` or ``1``
    #: never coalesces (every flush is a batch of one).  Stateless
    #: ``propose``/``ask`` requests and session turns batch, at most
    #: one turn per session per flush; ``execute`` requests are always
    #: served alone.  8 is what the ``serve_mixed`` coalescing sweep
    #: supports (docs/PERFORMANCE.md §4).
    microbatch_size: int = 8
    #: How long a worker holding a partial batch waits for more
    #: requests before flushing it.  The knob trades tail latency
    #: (first request waits up to this long) against batching
    #: efficiency; ``0`` (the default) flushes immediately with
    #: whatever is already queued, so coalescing adds no wait.
    microbatch_deadline_seconds: float = 0.0
    #: Root directory of a durable :class:`repro.store.GraphCatalog`;
    #: empty disables the store (requests then must carry inline
    #: graphs).  When set, requests may name catalog graphs via
    #: ``ServeRequest.graph_name``.
    store_root: str = ""
    #: Shard worker *processes* behind a
    #: :class:`repro.shard.ShardedChatGraphServer`; ``0`` means the
    #: config describes a plain in-process server.  In sharded mode
    #: ``workers`` and ``microbatch_*`` apply *per shard* (the
    #: coordinator forwards each request alone; only shards coalesce),
    #: and work routed but unanswered is capped at
    #: ``shards × queue_depth`` — each shard's local queue depth.
    shards: int = 0
    #: Catalog graph names replicated read-only across
    #: ``repro.runtime.shard.HOT_GRAPH_REPLICAS`` shards with
    #: least-loaded routing; other keys route to their single ring owner.
    shard_hot_graphs: tuple[str, ...] = ()
    #: Base seed folded into every request's deterministic per-request
    #: seed (content-keyed, so results are order-independent).
    seed: int = 0

    def __post_init__(self) -> None:
        _require(self.workers >= 1, "workers must be >= 1")
        _require(self.queue_depth >= 1, "queue_depth must be >= 1")
        _require(self.session_ttl_seconds > 0.0,
                 "session_ttl_seconds must be > 0")
        _require(self.rate_limit_capacity >= 0,
                 "rate_limit_capacity must be >= 0")
        _require(self.rate_limit_refill_per_second >= 0.0,
                 "rate_limit_refill_per_second must be >= 0")
        _require(self.step_timeout_seconds >= 0.0,
                 "step_timeout_seconds must be >= 0")
        _require(self.step_max_retries >= 0,
                 "step_max_retries must be >= 0")
        _require(self.retry_backoff_seconds >= 0.0,
                 "retry_backoff_seconds must be >= 0")
        _require(self.breaker_failure_threshold >= 1,
                 "breaker_failure_threshold must be >= 1")
        _require(self.breaker_window >= self.breaker_failure_threshold,
                 "breaker_window must be >= breaker_failure_threshold")
        _require(self.breaker_cooldown_seconds > 0.0,
                 "breaker_cooldown_seconds must be > 0")
        _require(self.microbatch_size >= 0,
                 "microbatch_size must be >= 0")
        _require(self.microbatch_deadline_seconds >= 0.0,
                 "microbatch_deadline_seconds must be >= 0")
        _require(self.shards >= 0, "shards must be >= 0")


@dataclass(frozen=True)
class ChatGraphConfig:
    """Top-level configuration for a :class:`~repro.core.chatgraph.ChatGraph`.

    Example::

        config = ChatGraphConfig.default().with_updates(
            retrieval=RetrievalConfig(top_k_apis=4),
        )
    """

    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    sequencer: SequencerConfig = field(default_factory=SequencerConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    llm: LLMConfig = field(default_factory=LLMConfig)

    @classmethod
    def default(cls) -> "ChatGraphConfig":
        """Return the configuration with all paper-default parameters."""
        return cls()

    def with_updates(self, **sections: Any) -> "ChatGraphConfig":
        """Return a copy with whole sections replaced.

        ``sections`` maps section names (``retrieval``, ``sequencer``,
        ``finetune``, ``llm``) to replacement config objects.
        """
        known = {f.name for f in dataclasses.fields(self)}
        unknown = set(sections) - known
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        return dataclasses.replace(self, **sections)

    def to_dict(self) -> dict[str, dict[str, Any]]:
        """Serialize to a plain nested dictionary (for display / logging)."""
        return {
            name: dataclasses.asdict(getattr(self, name))
            for name in ("retrieval", "sequencer", "finetune", "llm")
        }
