"""Concurrent session store: TTL + max-size eviction over ChatSession.

The store owns every :class:`~repro.core.session.ChatSession` the
server hands out.  Each entry carries its own lock — two requests that
name the same ``session_id`` serialize against each other (dialog order
matters) while distinct sessions proceed in parallel.  Idle sessions
expire after ``ttl_seconds``; when the store is full the least recently
used session is evicted first.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.chatgraph import ChatGraph
from ..core.session import ChatSession
from ..errors import SessionError

Clock = Callable[[], float]

#: Hard cap on live sessions per store; beyond it the least recently
#: used session is evicted.  Read at use, so a test patches it here.
MAX_SESSIONS = 256


@dataclass
class SessionEntry:
    """One live session plus its bookkeeping."""

    session_id: str
    session: ChatSession
    created: float
    last_used: float
    requests: int = 0
    #: Durable-store binding: ``(catalog name, epoch)`` of the graph
    #: view this session last worked against.  The name survives a
    #: server restart (the graph lives in the store, not the session);
    #: the epoch lets compaction evict sessions pinned to pruned state.
    graph_ref: tuple[str, int] | None = None
    #: Serializes requests that target this session.
    lock: threading.Lock = field(default_factory=threading.Lock)


class SessionStore:
    """Thread-safe ``session_id -> ChatSession`` map with eviction.

    Example::

        store = SessionStore(chatgraph, ttl_seconds=600)
        entry = store.get_or_create("alice")
        with entry.lock:
            entry.session.send("how many nodes does G have?")
    """

    def __init__(self, chatgraph: ChatGraph, ttl_seconds: float = 600.0,
                 clock: Clock = time.monotonic) -> None:
        if ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be > 0")
        self.chatgraph = chatgraph
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._entries: OrderedDict[str, SessionEntry] = OrderedDict()
        self._lock = threading.Lock()
        self._created = 0
        self._evicted_ttl = 0
        self._evicted_lru = 0
        self._evicted_epoch = 0

    # ------------------------------------------------------------------
    def get_or_create(self, session_id: str) -> SessionEntry:
        """The entry for ``session_id``, creating (and evicting) as needed."""
        with self._lock:
            now = self._clock()
            self._evict_expired_locked(now)
            entry = self._entries.get(session_id)
            if entry is not None:
                entry.last_used = now
                entry.requests += 1
                self._entries.move_to_end(session_id)
                return entry
            while len(self._entries) >= MAX_SESSIONS:
                self._entries.popitem(last=False)
                self._evicted_lru += 1
            entry = SessionEntry(session_id=session_id,
                                 session=ChatSession(self.chatgraph),
                                 created=now, last_used=now, requests=1)
            self._entries[session_id] = entry
            self._created += 1
            return entry

    def get(self, session_id: str) -> SessionEntry:
        """The entry for ``session_id``; raises SessionError if absent."""
        with self._lock:
            now = self._clock()
            self._evict_expired_locked(now)
            entry = self._entries.get(session_id)
            if entry is None:
                raise SessionError(f"no such session: {session_id!r}")
            entry.last_used = now
            self._entries.move_to_end(session_id)
            return entry

    def drop(self, session_id: str) -> bool:
        """Remove a session; True if it existed."""
        with self._lock:
            return self._entries.pop(session_id, None) is not None

    def pins(self, session_ids: list[str] | None = None
             ) -> list[dict[str, Any]]:
        """One ``{"session_id", "graph_name"}`` per live session: the
        placement inventory for the shard tier's migration planner
        (``graph_name`` is the pinned catalog graph, or None).

        With ``session_ids``, just those of them that are live, each
        also carrying its session's ``document``
        (:meth:`~repro.core.session.ChatSession.to_document`) — the
        state a new owner rebuilds the session from.  Deliberately
        read-only: it must not refresh TTLs or reorder the LRU the way
        :meth:`get` does.
        """
        with self._lock:
            if session_ids is None:
                entries = list(self._entries.values())
            else:
                entries = [self._entries[session_id]
                           for session_id in session_ids
                           if session_id in self._entries]
        inventory = []
        for entry in entries:
            pin: dict[str, Any] = {
                "session_id": entry.session_id,
                "graph_name": entry.graph_ref[0] if entry.graph_ref
                else None}
            if session_ids is not None:
                with entry.lock:
                    pin["document"] = entry.session.to_document()
            inventory.append(pin)
        return inventory

    def evict_compacted(self, graph_name: str,
                        live_epochs: list[int]) -> int:
        """Evict sessions pinned to pruned epochs of ``graph_name``.

        Called by the serve engine's catalog compact listener: a
        session whose ``graph_ref`` epoch no longer exists on disk
        would silently keep chatting against vanished state.
        """
        with self._lock:
            stale = [sid for sid, entry in self._entries.items()
                     if entry.graph_ref is not None
                     and entry.graph_ref[0] == graph_name
                     and entry.graph_ref[1] not in live_epochs]
            for session_id in stale:
                del self._entries[session_id]
                self._evicted_epoch += 1
            return len(stale)

    def evict_expired(self) -> int:
        """Evict every session idle for longer than the TTL."""
        with self._lock:
            return self._evict_expired_locked(self._clock())

    def _evict_expired_locked(self, now: float) -> int:
        # ``_entries`` is in last-use order (every use moves its entry
        # to the end, stamped with a clock read under this lock), so
        # the expired entries are a prefix: stop at the first live one
        evicted = 0
        entries = self._entries
        while entries:
            entry = next(iter(entries.values()))
            if now - entry.last_used <= self.ttl_seconds:
                break
            entries.popitem(last=False)
            evicted += 1
        self._evicted_ttl += evicted
        return evicted

    # ------------------------------------------------------------------
    def ids(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, session_id: object) -> bool:
        with self._lock:
            return session_id in self._entries

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "active": len(self._entries),
                "created": self._created,
                "evicted_ttl": self._evicted_ttl,
                "evicted_lru": self._evicted_lru,
                "evicted_epoch": self._evicted_epoch,
                "max_sessions": MAX_SESSIONS,
                "ttl_seconds": self.ttl_seconds,
            }
