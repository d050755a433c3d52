"""Workload drivers: set-up, the scalar oracle, and the timed passes.

The program is touched only through public functions —
``ChatGraph.pretrained/ask``, ``ChatGraphServer`` /
``ShardedChatGraphServer`` ``start/submit/stop/stats``,
``GraphCatalog.create/open`` and ``GraphHandle.add_edge/ingest`` — and
through values replies already expose (``ServeResponse.queued_seconds``
/ ``.service_seconds``, ``PendingRequest.enqueued_at``).  All traffic is
issued by one generator thread through in-process ``submit``; there are
no sockets and no injected sleeps.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import ChatGraph, ChatGraphServer, ServeConfig
from repro.errors import ChatGraphError
from repro.shard import ShardedChatGraphServer, ShardModelSpec
from repro.shard.protocol import dumps_canonical, value_to_wire

from stats import (bracketed, kernel_reading, median, slow_factor,
                   slow_factors)
from spans import Recorder
from workloads import SEGMENT, Spec, Workload

#: Times each set-up component is repeated; ``setup_s`` sums medians.
SETUP_REPEATS = 3
#: Seconds a caller waits for one reply before counting it as failed.
REPLY_TIMEOUT = 60.0
#: How long before a slot's due time the generator wakes to run the
#: calibration kernel twice (~0.3 ms each, up to 0.8 ms on a slow
#: minute); slots are at least 8 ms apart.
KERNEL_LEAD = 0.003


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def reply_digest(op: str, value: Any) -> str:
    """sha256 of a reply's canonical wire form.

    ``value_to_wire`` is the function the repo's own parity gate
    flattens scalar, batched and sharded values through, so equal
    digests mean byte-equal chain, retrieved APIs, answer text and
    degradation flags.
    """
    return hashlib.sha256(
        dumps_canonical(value_to_wire(op, value))).hexdigest()


class Oracle:
    """Scalar reference replies from an independent ``ChatGraph``."""

    def __init__(self) -> None:
        self.chatgraph = ChatGraph.pretrained(seed=0)
        self.registry = self.chatgraph.registry
        self._refs: dict[tuple[str, str, str], str] = {}

    def prepare(self, workload: Workload) -> None:
        """Reference digest of every inline-graph request (deduplicated
        on ``(op, text, graph)``; named-graph reads have no fixed
        reference because writes move their graph)."""
        graphs: dict[str, Any] = {}
        for spec in workload.reads():
            if spec.graph is None:
                continue
            key = (spec.op, spec.text, spec.graph)
            if key in self._refs:
                continue
            if spec.graph not in graphs:
                graphs[spec.graph] = workload.build_graph(spec.graph)
            graph = graphs[spec.graph]
            value = (self.chatgraph.ask(spec.text, graph=graph)
                     if spec.op == "ask"
                     else self.chatgraph.propose(spec.text, graph=graph))
            self._refs[key] = reply_digest(spec.op, value)

    def check(self, spec: Spec, value: Any) -> str | None:
        """The reply's digest if it is correct, else ``None``."""
        if value is None:
            return None
        if spec.graph is not None:
            digest = reply_digest(spec.op, value)
            expected = self._refs[(spec.op, spec.text, spec.graph)]
            return digest if digest == expected else None
        # named-graph read under writes: the chain must validate
        try:
            value.chain.validate(self.registry)
        except ChatGraphError:
            return None
        return "named"


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """sent / succeeded / failed / refused of one phase, all passes."""

    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    refused: int = 0

    def to_dict(self) -> dict[str, int]:
        return {"sent": self.sent, "succeeded": self.succeeded,
                "failed": self.failed, "refused": self.refused}


@dataclass
class Ledger:
    """Everything the timed passes of one workload produced."""

    #: Per pass, per latency unit: seconds due (or submit) -> reply,
    #: divided by the host's slow factor around the unit.
    latency: list[list[float]] = field(default_factory=list)
    #: Per pass, per burst segment: seconds submit-all -> gather-all,
    #: divided by the slow factor around the segment.
    burst: list[list[float]] = field(default_factory=list)
    #: The same latency units as clocked, before the division.
    latency_raw: list[list[float]] = field(default_factory=list)
    #: Every slow factor applied (for the record; ~1.0-1.6 on a busy
    #: shared host).
    slow: list[float] = field(default_factory=list)
    phases: dict[str, Phase] = field(default_factory=dict)
    #: Open-loop send lateness (sent - due), all passes.
    gen_lag: list[float] = field(default_factory=list)
    #: sha256 over the last pass's inline-graph reply digests.
    reply_digest: str = ""

    def phase(self, name: str) -> Phase:
        return self.phases.setdefault(name, Phase())

    @property
    def attempted(self) -> int:
        return sum(phase.sent for phase in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(phase.failed + phase.refused
                   for phase in self.phases.values())


@dataclass
class Setup:
    """Set-up timings; each component repeated, the median counted."""

    import_s: list[float] = field(default_factory=list)
    pretrained_s: list[float] = field(default_factory=list)
    #: Server construction + start (fleet boot) + catalog ingest.
    boot_s: list[float] = field(default_factory=list)
    warmup_s: float = 0.0
    ingest_edges: int = 0
    ingest_s: float = 0.0

    def total(self) -> float:
        parts = [self.import_s, self.pretrained_s, self.boot_s]
        return sum(median(part) for part in parts if part) + self.warmup_s


# ----------------------------------------------------------------------
# direct (library) workloads
# ----------------------------------------------------------------------
class DirectDriver:
    """``chat_direct`` / ``chat_large``: one caller, back to back."""

    #: Child processes whose peak RSS counts towards ``peak_rss_mb``.
    shard_count = 0

    def __init__(self, workload: Workload, oracle: Oracle,
                 setup: Setup, repeats: int = SETUP_REPEATS) -> None:
        self.workload = workload
        self.oracle = oracle
        self.setup = setup
        for _ in range(repeats):
            seconds, self.chatgraph = bracketed(
                lambda: ChatGraph.pretrained(seed=0))
            setup.pretrained_s.append(seconds)
        self.ledger = Ledger()

    def fresh_graphs(self) -> dict[str, Any]:
        """New graph objects for one pass (untimed): a pass must not be
        served from anything an earlier pass left on a graph object."""
        return {key: self.workload.build_graph(key)
                for key in self.workload.graphs}

    def run_pass(self, index: int = 0, count: bool = True,
                 units: int | None = None) -> list[float]:
        graphs = self.fresh_graphs()
        phase = self.ledger.phase("latency") if count else Phase()
        raw: list[float] = []
        digests = hashlib.sha256()
        readings = [kernel_reading()]
        for spec in self.workload.latency[:units]:
            graph = graphs[spec.graph]
            start = time.perf_counter()
            try:
                value = self.chatgraph.ask(spec.text, graph=graph)
            except ChatGraphError:
                value = None
            raw.append(time.perf_counter() - start)
            readings.append(kernel_reading())
            phase.sent += 1
            digest = self.oracle.check(spec, value)
            if digest is None:
                phase.failed += 1
            else:
                phase.succeeded += 1
                digests.update(digest.encode("ascii"))
        slow = slow_factors(readings)
        seconds = [clocked / factor for clocked, factor in zip(raw, slow)]
        if count:
            self.ledger.latency.append(seconds)
            self.ledger.latency_raw.append(raw)
            self.ledger.slow.extend(slow)
            self.ledger.reply_digest = digests.hexdigest()
        return seconds

    def full_pass(self, tag: str) -> None:
        self.run_pass()

    def warm_up(self) -> None:
        """The first third of the list, untimed: nothing is cached on
        this path, so the pass only has to get lazy imports and the
        allocator out of the way (the oracle ran the same code once
        already)."""
        units = max(8, len(self.workload.latency) // 3)
        self.setup.warmup_s = sum(self.run_pass(count=False, units=units))

    def stop(self) -> None:
        """Nothing to stop: the library path starts no thread."""


# ----------------------------------------------------------------------
# served workloads
# ----------------------------------------------------------------------
@dataclass
class ReadTiming:
    """Clock readings of one served read (``perf_counter`` seconds)."""

    due: float
    sent: float
    admitted: float
    enqueued: float = 0.0
    queued: float = 0.0
    service: float = 0.0
    ok: bool = False
    #: Schedule slot of the read, and the host's slow factor around it.
    slot: int = 0
    slow: float = 1.0

    @property
    def reply(self) -> float:
        return self.enqueued + self.queued + self.service


class ServedDriver:
    """``serve_mixed`` / ``shard_fleet``: one generator thread, in-process
    ``submit``; open-loop latency phase then closed burst segments."""

    shard_count = 0
    #: Most times a subclass's ``boot`` is repeated for the median.
    max_boots = SETUP_REPEATS

    def __init__(self, workload: Workload, oracle: Oracle, setup: Setup,
                 work_dir: Path, repeats: int = SETUP_REPEATS) -> None:
        self.workload = workload
        self.oracle = oracle
        self.setup = setup
        self.work_dir = work_dir
        self.ledger = Ledger()
        self.recorder: Recorder | None = None
        self.write_seconds: list[float] = []
        self.read_timings: list[ReadTiming] = []
        self._boots = 0
        self._writes = 0
        self.graphs = {key: workload.build_graph(key)
                       for key in workload.graphs}
        self.server: Any = None
        for _ in range(min(repeats, self.max_boots)):
            if self.server is not None:
                self.stop()
            self.server = self.boot()
        self.handles = {name: self.server.catalog.open(name)
                        for name in workload.catalog}

    # -- set-up --------------------------------------------------------
    def boot(self) -> Any:
        """Build and start a server, recording its set-up timings."""
        raise NotImplementedError

    def stop(self) -> None:
        self.server.stop()

    # -- operations ----------------------------------------------------
    def write(self, spec: Spec) -> bool:
        """One catalog edit; ``rev`` makes every write change content,
        so named-graph reads see their version move on every pass."""
        handle = self.handles[spec.graph_name]
        self._writes += 1
        try:
            if spec.op == "add_edge":
                handle.add_edge(spec.payload["u"], spec.payload["v"],
                                rev=self._writes,
                                **spec.payload.get("attrs", {}))
            else:
                patch = self.workload.build_graph(spec.payload["graph"])
                first = next(iter(patch.nodes()))
                patch.set_node_attr(first, "rev", self._writes)
                handle.ingest(patch)
        except ChatGraphError:
            return False
        return True

    def submit(self, spec: Spec, suffix: str) -> Any:
        graph = None if spec.graph is None else self.graphs[spec.graph]
        request = self.workload.request(spec, graph, suffix)
        try:
            return self.server.submit(request)
        except ChatGraphError:  # RateLimitError / BackpressureError
            return None

    def settle(self, spec: Spec, pending: Any, phase: Phase,
               digests: Any) -> Any:
        """Wait for one reply and account for it; returns the response
        (``None`` when refused, timed out or failed)."""
        phase.sent += 1
        if pending is None:
            phase.refused += 1
            return None
        try:
            response = pending.result(REPLY_TIMEOUT)
        except ChatGraphError:
            phase.failed += 1
            return None
        digest = (self.oracle.check(spec, response.value)
                  if response.ok else None)
        if digest is None:
            phase.failed += 1
            return None
        phase.succeeded += 1
        if spec.graph is not None:
            digests.update(digest.encode("ascii"))
        return response

    # -- passes --------------------------------------------------------
    def latency_pass(self, suffix: str) -> list[float]:
        """Open loop on a fixed grid; each read is timed from its *due*
        time, so a write or a stall is charged to the reads behind it.
        The calibration kernel runs in the idle millisecond before each
        slot, so consecutive readings bracket every read."""
        # ``rate`` is requests per *nominal* second (see the loop)
        rate = self.workload.sizes.rate_rps
        reads = self.ledger.phase("latency")
        writes = self.ledger.phase("writes")
        digests = hashlib.sha256()
        inflight: list[tuple[Spec, Any, ReadTiming]] = []
        edits: list[tuple[int, float]] = []
        kernels: list[float] = []
        due = time.perf_counter() + 0.02
        slots = len(self.workload.latency)
        for index in range(slots + 1):
            delay = due - KERNEL_LEAD - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            kernels.append(kernel_reading())
            if index == slots:
                break
            this_due = due
            # the grid is laid out in nominal time: a host running at
            # half speed gets the requests half as fast, so the load the
            # server sees (and the queueing it causes) stays the same
            due += slow_factor(kernels[-4:]) / rate
            spec = self.workload.latency[index]
            delay = this_due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            if spec.kind == "write":
                ok = self.write(spec)
                done = time.perf_counter()
                writes.sent += 1
                writes.succeeded += ok
                writes.failed += not ok
                edits.append((index, done - sent))
                if self.recorder is not None:
                    self.recorder.add("store.edit", f"{suffix}-w{index}",
                                      sent, done)
                continue
            pending = self.submit(spec, suffix)
            timing = ReadTiming(this_due, sent, time.perf_counter(),
                                slot=index)
            inflight.append((spec, pending, timing))
            self.ledger.gen_lag.append(sent - this_due)
        seconds: list[float] = []
        raw: list[float] = []
        slow = slow_factors(kernels)
        self.write_seconds.extend(
            clocked / slow[slot] for slot, clocked in edits)
        for index, (spec, pending, timing) in enumerate(inflight):
            response = self.settle(spec, pending, reads, digests)
            timing.slow = slow[timing.slot]
            if response is not None:
                timing.enqueued = pending.enqueued_at
                timing.queued = response.queued_seconds
                timing.service = response.service_seconds
                timing.ok = True
                raw.append(timing.reply - timing.due)
            else:
                # a lost reply misses every latency limit
                raw.append(REPLY_TIMEOUT)
            seconds.append(raw[-1] / timing.slow)
            self.read_timings.append(timing)
            if self.recorder is not None and timing.ok:
                self._record_read(f"{suffix}-{index}", timing)
        self.ledger.latency.append(seconds)
        self.ledger.latency_raw.append(raw)
        self.ledger.slow.extend(t.slow for _, _, t in inflight)
        self.ledger.reply_digest = digests.hexdigest()
        return seconds

    def _record_read(self, request_id: str, timing: ReadTiming) -> None:
        recorder = self.recorder
        recorder.slow[request_id] = timing.slow
        root = recorder.add("request", request_id, timing.due, timing.reply)
        started = timing.enqueued + timing.queued
        for name, start, end in (
                ("ledger.gen_lag", timing.due, timing.sent),
                ("runtime.admit", timing.sent, timing.admitted),
                ("runtime.queued", timing.enqueued, started),
                ("runtime.service", started, timing.reply)):
            recorder.add(name, request_id, start, end, parent=root.id)

    def burst_pass(self, suffix: str) -> list[float]:
        """Closed segments: submit 32, gather 32; one unit per segment."""
        phase = self.ledger.phase("burst")
        digests = hashlib.sha256()
        specs = self.workload.burst
        raw: list[float] = []
        readings = [kernel_reading(3)]
        for offset in range(0, len(specs), SEGMENT):
            segment = specs[offset:offset + SEGMENT]
            start = time.perf_counter()
            pendings = [self.submit(spec, suffix) for spec in segment]
            # gather first, check after: the oracle's hashing is not
            # part of the segment's time
            for pending in pendings:
                if pending is not None:
                    try:
                        pending.result(REPLY_TIMEOUT)
                    except ChatGraphError:
                        pass
            raw.append(time.perf_counter() - start)
            readings.append(kernel_reading(3))
            for spec, pending in zip(segment, pendings):
                self.settle(spec, pending, phase, digests)
        slow = slow_factors(readings)
        seconds = [clocked / factor for clocked, factor in zip(raw, slow)]
        self.ledger.burst.append(seconds)
        self.ledger.slow.extend(slow)
        return seconds

    def warm_specs(self) -> list[Spec]:
        """What the warm-up pass replays: everything."""
        return self.workload.latency + self.workload.burst

    def run_pass(self, index: int) -> None:
        """Round ``index`` of the timed run: each phase takes part for
        its own K rounds."""
        suffix = f"-p{index}"
        if index < self.workload.sizes.passes:
            self.latency_pass(suffix)
        if index < self.workload.sizes.burst_passes:
            self.burst_pass(suffix)

    def full_pass(self, tag: str) -> None:
        """Both phases once (the traced run's passes)."""
        self.latency_pass(f"-{tag}")
        self.burst_pass(f"-{tag}")

    def warm_up(self) -> None:
        """Untimed pass over every operation, unpaced (closed segments),
        so its wall time is the program's work and not the send grid."""
        readings = [kernel_reading(3)]
        start = time.perf_counter()
        scratch = Phase()
        digests = hashlib.sha256()
        batch: list[tuple[Spec, Any]] = []

        def drain() -> None:
            for spec, pending in batch:
                self.settle(spec, pending, scratch, digests)
            batch.clear()
            readings.append(kernel_reading(3))

        for spec in self.warm_specs():
            if spec.kind == "write":
                drain()
                self.write(spec)
                continue
            batch.append((spec, self.submit(spec, "-warm")))
            if len(batch) == SEGMENT:
                drain()
        drain()
        elapsed = time.perf_counter() - start
        self.setup.warmup_s = elapsed / median(slow_factors(readings))
        if scratch.failed or scratch.refused:
            raise RuntimeError(
                f"warm-up pass had {scratch.failed} failed and "
                f"{scratch.refused} refused operations")


class ServeMixedDriver(ServedDriver):
    def boot(self) -> ChatGraphServer:
        seconds, chatgraph = bracketed(lambda: ChatGraph.pretrained(seed=0))
        self.setup.pretrained_s.append(seconds)
        booting = time.perf_counter()
        self._boots += 1
        # ServeConfig() defaults; the queue is deep enough that a
        # 32-burst is never shed
        server = ChatGraphServer(chatgraph, ServeConfig(
            store_root=str(self.work_dir / f"store-{self._boots}"),
            queue_depth=4 * SEGMENT))
        server.start()
        ingesting = time.perf_counter()
        edges = 0
        for name, key in self.workload.catalog.items():
            graph = self.workload.build_graph(key)
            handle = server.catalog.create(name, directed=graph.directed)
            handle.ingest(graph)
            edges += graph.number_of_edges()
        done = time.perf_counter()
        self.setup.boot_s.append(done - booting)
        self.setup.ingest_s = done - ingesting
        self.setup.ingest_edges = edges
        return server

    def stop(self) -> None:
        self.server.stop()
        self.server.catalog.close()


class ShardFleetDriver(ServedDriver):
    shard_count = 2
    #: A boot spawns two interpreters that each import and pretrain
    #: (~3 s on one core): twice is what the run-time cap affords.
    max_boots = 2

    def warm_specs(self) -> list[Spec]:
        """Caches are off, so (as on the direct path) a third of the
        list gets lazy imports in the fresh workers out of the way."""
        specs = self.workload.latency + self.workload.burst
        return specs[:max(SEGMENT, len(specs) // 3)]

    def boot(self) -> ShardedChatGraphServer:
        server = ShardedChatGraphServer(
            ShardModelSpec(seed=0),
            ServeConfig(shards=self.shard_count, microbatch_size=8,
                        microbatch_deadline_seconds=0.0,
                        enable_caches=False, queue_depth=4 * SEGMENT))
        seconds, _ = bracketed(server.start)
        self.setup.boot_s.append(seconds)
        return server


def make_driver(workload: Workload, oracle: Oracle, setup: Setup,
                work_dir: Path, repeats: int) -> Any:
    if workload.name in ("chat_direct", "chat_large"):
        return DirectDriver(workload, oracle, setup, repeats)
    cls = (ServeMixedDriver if workload.name == "serve_mixed"
           else ShardFleetDriver)
    return cls(workload, oracle, setup, work_dir, repeats)
