"""Thread-safe content-addressed LRU caches for the service runtime.

Two hot pipeline stages repeat work across requests:

* API retrieval (text + routing -> ranked names),
* graph sequentialization (the length-constrained path cover).

Each gets an :class:`LRUCache` keyed on the input of the work it saves,
so the same text or the same graph hits the cache regardless of which
session or worker asks.  Only served requests fill them: nothing
pre-fills a cache.  A graph is keyed on what the sequencer reads of it
(:meth:`repro.sequencer.GraphSequentializer.sequentialize`): its
memoised :class:`~repro.graphs.TopologyView`, node reprs, label tokens
and name — no content digest, and a write to an attribute that is not
a label still hits.  Each cache is an attribute on the component whose
work it saves — ``retrieval`` on the stage graph's
:class:`~repro.core.stages.RetrieveStage` and ``sequences`` on the
sequentializer — set together by
:meth:`repro.core.pipeline.ChatPipeline.attach_caches`.
Cached values are treated as immutable by every consumer;
hit/miss/eviction counters feed ``ChatGraphServer.stats()``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of one :class:`LRUCache`."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "size": self.size,
                "maxsize": self.maxsize,
                "hit_rate": round(self.hit_rate, 4)}


class LRUCache:
    """Bounded least-recently-used cache safe for concurrent access.

    A caller computes a miss *outside* the lock and then puts it, so a
    slow miss never blocks other workers; under a race the value is
    computed twice (results are deterministic, so either copy is valid)
    and the last writer wins.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    _MISS = object()

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            value = self._data.get(key, self._MISS)
            if value is self._MISS:
                self._misses += 1
                return default
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._data[key] = value
                return
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self._evictions += 1

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              evictions=self._evictions,
                              size=len(self._data), maxsize=self.maxsize)


#: Entries per pipeline cache (fixed sizes, not ``ServeConfig`` knobs).
RETRIEVAL_CACHE_SIZE = 1024
SEQUENCE_CACHE_SIZE = 256


@dataclass
class PipelineCaches:
    """The cache bundle one server (or any caller) plugs into a pipeline.

    Attach with :meth:`repro.core.chatgraph.ChatGraph.enable_caches`;
    detach by enabling ``None``.
    """

    retrieval: LRUCache
    sequences: LRUCache

    @classmethod
    def with_sizes(cls) -> "PipelineCaches":
        """One LRU per cache, at the sizes every server runs with."""
        return cls(retrieval=LRUCache(RETRIEVAL_CACHE_SIZE),
                   sequences=LRUCache(SEQUENCE_CACHE_SIZE))

    def stats(self) -> dict[str, dict[str, Any]]:
        return {"retrieval": self.retrieval.stats().to_dict(),
                "sequences": self.sequences.stats().to_dict()}
