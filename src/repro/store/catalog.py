"""The graph catalog: named durable graphs with epochs and views.

:class:`GraphCatalog` manages a directory of named graphs, each backed
by the snapshot + edit-log format of this package.  Concurrency model:

* **single writer** — every mutation of a graph goes through its
  :class:`GraphHandle`, serialized by a per-handle lock;
* **immutable reader views** — :meth:`GraphCatalog.view` returns a
  :class:`GraphView` carrying a private copy of the graph pinned to a
  ``(name, epoch, version)`` triple; later writes never show through.

Epochs advance on :meth:`GraphHandle.snapshot` (write state, start a
fresh log) and :meth:`GraphHandle.compact` (snapshot + prune old
epochs + rewrite the node ANN index).  Compaction notifies registered
listeners so e.g. :mod:`repro.serve` can evict sessions pinned to
epochs that no longer exist on disk.
"""

from __future__ import annotations

import queue
import shutil
import threading
from pathlib import Path
from typing import Any, Callable, Iterable

from ..errors import StoreError
from ..graphs.graph import DiGraph, Graph, Node
from ..obs.trace import span
from . import layout
from .index import NodeVectorIndex
from .log import EditLog
from .records import apply_record, make_record
from .snapshot import graph_bytes, graph_from_bytes

MANIFEST_FORMAT = 1

CompactListener = Callable[[str, list[int]], None]


class CompactTicket:
    """Future for one queued :meth:`GraphCatalog.compact_async` job."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._done = threading.Event()
        self._epoch: int | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> int:
        """Block until the compaction ran; returns the new epoch.

        Re-raises the compaction's exception if it failed; raises
        :class:`~repro.errors.StoreError` on timeout.
        """
        if not self._done.wait(timeout):
            raise StoreError(
                f"compaction of {self.name!r} not done after {timeout}s")
        if self._error is not None:
            raise self._error
        assert self._epoch is not None
        return self._epoch

    def _finish(self, epoch: int | None = None,
                error: BaseException | None = None) -> None:
        self._epoch = epoch
        self._error = error
        self._done.set()


class GraphView:
    """An immutable reader view pinned to one catalog epoch/version."""

    def __init__(self, name: str, epoch: int, version: int,
                 graph: Graph) -> None:
        self.name = name
        #: Epoch whose log contained the last edit visible here.
        self.epoch = epoch
        #: Total edit count at view time (monotonic across epochs).
        self.version = version
        self._graph = graph

    @property
    def graph(self) -> Graph:
        """The viewed graph (private copy — safe to mutate)."""
        return self._graph

    def __repr__(self) -> str:
        return (f"<GraphView {self.name!r} epoch={self.epoch} "
                f"version={self.version}>")


class GraphHandle:
    """Writer handle for one named graph (single-writer semantics)."""

    def __init__(self, catalog: "GraphCatalog", name: str) -> None:
        self.catalog = catalog
        self.name = name
        self._lock = threading.Lock()
        self._index: NodeVectorIndex | None = None
        manifest = layout.read_manifest(catalog.root, name)
        try:
            self.epoch = int(manifest["epoch"])
            self.directed = bool(manifest["directed"])
        except KeyError as exc:
            raise StoreError(
                f"manifest of graph {name!r} missing field {exc}") from exc
        self._graph = graph_from_bytes(layout.read_bytes(
            layout.snapshot_path(catalog.root, name, self.epoch)))
        self._log = EditLog(layout.log_path(catalog.root, name, self.epoch))
        records, dropped = self._log.recover()
        self.recovered_drop_bytes = dropped
        for record in records:
            apply_record(self._graph, record)
        #: Total edits applied across all epochs (from the manifest,
        #: plus the current log's tail).
        self.version = int(manifest.get("version", 0)) + len(records)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def view(self) -> GraphView:
        """A private immutable copy of the current state."""
        with self._lock:
            return GraphView(self.name, self.epoch, self.version,
                             self._graph.copy())

    @property
    def graph(self) -> Graph:
        """The live graph — treat as read-only; edits go via methods."""
        return self._graph

    # ------------------------------------------------------------------
    # edits (apply in memory first, then log: a crash between the two
    # loses only the unlogged edit, never corrupts)
    # ------------------------------------------------------------------
    def add_node(self, node: Node, **attrs: Any) -> None:
        self._edit(make_record("add_node", id=node, attrs=attrs))

    def remove_node(self, node: Node) -> None:
        self._edit(make_record("remove_node", id=node))

    def add_edge(self, u: Node, v: Node, **attrs: Any) -> None:
        self._edit(make_record("add_edge", u=u, v=v, attrs=attrs))

    def remove_edge(self, u: Node, v: Node) -> None:
        self._edit(make_record("remove_edge", u=u, v=v))

    def set_node_attr(self, node: Node, key: str, value: Any) -> None:
        self._edit(make_record("set_node_attr", id=node, key=key,
                               value=value))

    def set_edge_attr(self, u: Node, v: Node, key: str,
                      value: Any) -> None:
        self._edit(make_record("set_edge_attr", u=u, v=v, key=key,
                               value=value))

    def ingest(self, graph: Graph) -> int:
        """Append ``graph``'s full content as one durable edit batch."""
        if graph.directed != self.directed:
            raise StoreError(
                f"cannot ingest {'directed' if graph.directed else 'undirected'} "
                f"graph into {'directed' if self.directed else 'undirected'} "
                f"store graph {self.name!r}")
        records = [make_record("add_node", id=node,
                               attrs=graph.node_attrs(node))
                   for node in graph.nodes()]
        records += [make_record("add_edge", u=u, v=v,
                                attrs=graph.edge_attrs(u, v))
                    for u, v in graph.edges()]
        with self._lock:
            for record in records:
                self._apply_locked(record)
            self._log.append_batch(records)
            self.version += len(records)
            self.catalog._count("store_log_appends", len(records))
            self._maybe_snapshot_locked()
        return len(records)

    def _edit(self, record: dict[str, Any]) -> None:
        with self._lock:
            with span(self.catalog.tracer, "store:apply", kind="store",
                      op=record["op"], graph=self.name):
                self._apply_locked(record)
                self._log.append(record)
            self.version += 1
            self.catalog._count("store_log_appends")
            self._maybe_snapshot_locked()

    def _apply_locked(self, record: dict[str, Any]) -> None:
        op = record["op"]
        existed = (record["id"] in self._graph
                   if op in ("add_node", "set_node_attr") else False)
        apply_record(self._graph, record)
        self._index_update_locked(record, existed)

    def _index_update_locked(self, record: dict[str, Any],
                             existed: bool) -> None:
        """Stream a node-affecting edit into the lazy ANN index."""
        index = self._index
        if index is None:
            return
        op = record["op"]
        if op in ("add_node", "set_node_attr"):
            node = record["id"]
            attrs = self._graph.node_attrs(node)
            if existed:
                index.update_node(node, attrs)
            else:
                index.add_node(node, attrs)
            self.catalog._count("store_incremental_inserts")
            if existed:
                self.catalog._count("store_incremental_deletes")
        elif op == "remove_node":
            index.remove_node(record["id"])
            self.catalog._count("store_incremental_deletes")

    def _maybe_snapshot_locked(self) -> None:
        every = self.catalog.snapshot_every
        if every > 0 and self._log.record_count >= every:
            self._snapshot_locked()

    # ------------------------------------------------------------------
    # epochs
    # ------------------------------------------------------------------
    def snapshot(self) -> int:
        """Write current state as epoch ``k+1``; returns the new epoch."""
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> int:
        root = self.catalog.root
        new_epoch = self.epoch + 1
        with span(self.catalog.tracer, "store:snapshot", kind="store",
                  graph=self.name, epoch=new_epoch):
            layout.write_bytes_atomic(
                layout.snapshot_path(root, self.name, new_epoch),
                graph_bytes(self._graph))
            self._log.close()
            self._log = EditLog(layout.log_path(root, self.name, new_epoch))
            self.epoch = new_epoch
            self._write_manifest()
        self.catalog._count("store_snapshot_writes")
        return new_epoch

    def compact(self) -> int:
        """Snapshot, prune earlier epochs, rewrite the node index.

        Sessions or views pinned to pruned epochs are stale after this;
        the catalog's compact listeners are told which epochs survive.
        """
        with self._lock:
            with span(self.catalog.tracer, "store:compact", kind="store",
                      graph=self.name):
                new_epoch = self._snapshot_locked()
                root = self.catalog.root
                for old in layout.list_epochs(root, self.name):
                    if old >= new_epoch:
                        continue
                    layout.snapshot_path(root, self.name, old).unlink(
                        missing_ok=True)
                    layout.log_path(root, self.name, old).unlink(
                        missing_ok=True)
                if self._index is not None:
                    self._index.compact()
                live = layout.list_epochs(root, self.name)
            self.catalog._count("store_compactions")
        for listener in list(self.catalog._compact_listeners):
            listener(self.name, live)
        return new_epoch

    def _write_manifest(self) -> None:
        layout.write_manifest(self.catalog.root, self.name, {
            "format": MANIFEST_FORMAT,
            "name": self.name,
            "directed": self.directed,
            "epoch": self.epoch,
            "version": self.version,
        })

    # ------------------------------------------------------------------
    # index + introspection
    # ------------------------------------------------------------------
    def node_index(self) -> NodeVectorIndex:
        """The incrementally maintained node ANN index (lazy build)."""
        with self._lock:
            if self._index is None:
                self._index = NodeVectorIndex().build_from(self._graph)
            return self._index

    def replay_from_genesis(self) -> Graph:
        """Rebuild state by replaying every surviving epoch log in order.

        Starts from the oldest snapshot still on disk.  While no
        compaction has pruned history, that is the graph's genesis
        (epoch 0 = empty), so the result is the *full-log replay* of
        the parity gate — byte-identical to the live graph.
        """
        root = self.catalog.root
        epochs = layout.list_epochs(root, self.name)
        if not epochs:
            raise StoreError(f"graph {self.name!r} has no snapshots")
        graph = graph_from_bytes(layout.read_bytes(
            layout.snapshot_path(root, self.name, epochs[0])))
        for epoch in epochs:
            log = EditLog(layout.log_path(root, self.name, epoch))
            for record in log.read_records():
                apply_record(graph, record)
        return graph

    def stats(self) -> dict[str, Any]:
        with self._lock:
            out: dict[str, Any] = {
                "name": self.name,
                "directed": self.directed,
                "epoch": self.epoch,
                "version": self.version,
                "nodes": self._graph.number_of_nodes(),
                "edges": self._graph.number_of_edges(),
                "log_records": self._log.record_count,
                "log_bytes": self._log.size_bytes,
            }
            if self._index is not None:
                out["index"] = self._index.stats()
            return out

    def close(self) -> None:
        self._log.close()


class GraphCatalog:
    """A directory of named durable graphs."""

    def __init__(self, root: str | Path, snapshot_every: int = 0,
                 metrics: Any = None, tracer: Any = None) -> None:
        if snapshot_every < 0:
            raise StoreError("snapshot_every must be >= 0")
        self.root = Path(root)
        #: Auto-snapshot once a log holds this many records (0 = never).
        self.snapshot_every = snapshot_every
        self.metrics = metrics
        self.tracer = tracer
        self._handles: dict[str, GraphHandle] = {}
        self._lock = threading.Lock()
        self._compact_listeners: list[CompactListener] = []
        #: Lazily-started daemon running queued compact_async jobs.
        self._maintenance: threading.Thread | None = None
        self._jobs: "queue.Queue[CompactTicket | None]" = queue.Queue()

    # ------------------------------------------------------------------
    # catalog operations
    # ------------------------------------------------------------------
    def create(self, name: str, directed: bool = False) -> GraphHandle:
        """Create an empty named graph at epoch 0."""
        layout.check_name(name)
        if self.exists(name):
            raise StoreError(f"graph {name!r} already exists")
        empty: Graph = DiGraph(name=name) if directed else Graph(name=name)
        layout.write_bytes_atomic(
            layout.snapshot_path(self.root, name, 0), graph_bytes(empty))
        layout.write_manifest(self.root, name, {
            "format": MANIFEST_FORMAT,
            "name": name,
            "directed": directed,
            "epoch": 0,
            "version": 0,
        })
        return self.open(name)

    def open(self, name: str) -> GraphHandle:
        """The (cached) writer handle for ``name``."""
        with self._lock:
            handle = self._handles.get(name)
            if handle is None:
                if not self.exists(name):
                    raise StoreError(f"no graph named {name!r} under "
                                     f"{self.root}")
                handle = GraphHandle(self, name)
                self._handles[name] = handle
            return handle

    def view(self, name: str) -> GraphView:
        return self.open(name).view()

    def names(self) -> list[str]:
        return layout.list_graph_names(self.root)

    def exists(self, name: str) -> bool:
        return layout.manifest_path(self.root, name).is_file()

    def drop(self, name: str) -> None:
        """Delete ``name`` and all its on-disk state."""
        with self._lock:
            handle = self._handles.pop(name, None)
            if handle is not None:
                handle.close()
            directory = layout.graph_dir(self.root, name)
            if not directory.is_dir():
                raise StoreError(f"no graph named {name!r} under "
                                 f"{self.root}")
            shutil.rmtree(directory)

    # ------------------------------------------------------------------
    # background maintenance
    # ------------------------------------------------------------------
    def compact_async(self, name: str) -> "CompactTicket":
        """Queue a compaction of ``name`` on the maintenance thread.

        Returns immediately with a :class:`CompactTicket`; serving
        threads never block on snapshot IO or epoch pruning.  Jobs run
        one at a time in submission order on a single lazily-started
        daemon thread, and compact listeners fire on that thread,
        outside every catalog and handle lock — a listener may call
        back into the catalog freely.  Unknown names fail fast here
        (not on the ticket).
        """
        if not self.exists(name):
            raise StoreError(f"no graph named {name!r} under "
                             f"{self.root}")
        ticket = CompactTicket(name)
        with self._lock:
            if self._maintenance is None:
                self._jobs = queue.Queue()
                self._maintenance = threading.Thread(
                    target=self._maintenance_loop,
                    name="catalog-maintenance", daemon=True)
                self._maintenance.start()
            self._jobs.put(ticket)
        return ticket

    def _maintenance_loop(self) -> None:
        while True:
            ticket = self._jobs.get()
            if ticket is None:
                return
            try:
                epoch = self.open(ticket.name).compact()
            except BaseException as exc:  # noqa: BLE001 - fail the ticket
                ticket._finish(error=exc)
            else:
                self._count("store_compactions_async")
                ticket._finish(epoch=epoch)

    def close(self) -> None:
        # stop the maintenance thread before closing handles: a
        # compaction running after its handle's log closed would corrupt
        # nothing but would fail confusingly
        with self._lock:
            maintenance, self._maintenance = self._maintenance, None
        if maintenance is not None:
            self._jobs.put(None)
            maintenance.join(timeout=30.0)
        with self._lock:
            for handle in self._handles.values():
                handle.close()
            self._handles = {}

    def __enter__(self) -> "GraphCatalog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------
    def add_compact_listener(self, listener: CompactListener) -> None:
        """Call ``listener(name, live_epochs)`` after each compaction."""
        self._compact_listeners.append(listener)

    def remove_compact_listener(self, listener: CompactListener) -> None:
        """Detach a listener; unknown listeners are ignored."""
        try:
            self._compact_listeners.remove(listener)
        except ValueError:
            pass

    def stats(self) -> dict[str, Any]:
        return {name: self.open(name).stats() for name in self.names()}

    # ------------------------------------------------------------------
    # obs plumbing (a no-op unless a registry was provided)
    # ------------------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.incr(name, amount)
