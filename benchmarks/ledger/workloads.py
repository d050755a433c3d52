"""Seeded workload generator of the ledger benchmark.

Every graph, prompt pairing, session, schedule slot and write is drawn
from ``random.Random(seed)``; the same seed gives byte-identical request
lists (their canonical JSON and its sha256 are part of every result) and
another seed gives different ones.  The program under test receives only
the materialised objects (:class:`repro.serve.ServeRequest`, graphs) —
never the seed.

Between-seed spread is kept small on purpose: the *composition* of each
workload (graph kinds, the size grid, the prompt crossing, the traffic
mix) is fixed and only graph structure, pairing offsets and order are
random.  Otherwise the median of 120 asks over graphs of 100-400 nodes
moves more between two seeds than any regression bound allows.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import random
from dataclasses import dataclass, field, replace
from typing import Any

from repro.core import scenarios
from repro.graphs import (
    ba_graph,
    knowledge_graph,
    molecule_like_graph,
    social_network,
)
from repro.graphs.generators import KG_RELATIONS
from repro.graphs.io import from_dict
from repro.graphs.io import to_dict as _to_dict
from repro.serve import ServeRequest
from repro.testing.workloads import PROMPTS

#: Requests per burst segment (one throughput unit).
SEGMENT = 32
#: Smallest latency sample a full-size run may use: p90 then keeps 12
#: samples beyond it (see ``stats.samples_beyond``).
MIN_LATENCY_UNITS = 120


def _scenario_prompts() -> tuple[str, ...]:
    """Default prompt text of the four paper scenarios (Sec. IV)."""
    names = ("run_graph_understanding", "run_graph_comparison",
             "run_graph_cleaning", "run_chain_monitoring")
    return tuple(inspect.signature(getattr(scenarios, name))
                 .parameters["text"].default for name in names)


#: Scenario 2 asks about a *molecule*; on any other graph the chain it
#: produces degrades, so it is only crossed with molecule graphs.
COMPARISON_PROMPT = _scenario_prompts()[1]
GENERAL_PROMPTS: tuple[str, ...] = PROMPTS + tuple(
    text for text in _scenario_prompts() if text != COMPARISON_PROMPT)
MOLECULE_PROMPTS: tuple[str, ...] = GENERAL_PROMPTS + (COMPARISON_PROMPT,)


@dataclass(frozen=True)
class Sizes:
    """Operation counts of one workload at the reference run length.

    Work is fixed by these counts, never by a wall deadline, so a parent
    and a change do identical work.  ``--seconds`` scales the unit
    counts linearly from ``reference_seconds`` (see :meth:`scaled`).
    """

    latency_units: int
    burst_segments: int
    #: K of the latency phase.
    passes: int
    #: Open-loop send rate of the latency phase (served workloads), in
    #: requests per *nominal* second (see ``drivers.latency_pass``).
    rate_rps: float = 0.0
    #: K of the burst phase: segments are cheap and, on two busy vCPUs,
    #: the noisiest unit, so they are replayed more often.
    burst_passes: int = 0

    @property
    def rounds(self) -> int:
        return max(self.passes, self.burst_passes)

    def scaled(self, scale: float, floor: bool = True) -> "Sizes":
        units = round(self.latency_units * scale)
        units = max(MIN_LATENCY_UNITS if floor else 8, units)
        segments = self.burst_segments and max(
            1, round(self.burst_segments * scale))
        return replace(self, latency_units=units, burst_segments=segments)


#: Seconds of timed work the counts below were sized for on the 2-core
#: reference host (``run_seconds`` in BENCHMARK.json).
REFERENCE_SECONDS = 12

#: ISSUE 14 asked for 512/120/1200+1024/400+512 requests at K=5/3/3/3
#: (30-60 s timed per workload).  The driver's cap of 3420 s for 92 runs
#: including set-up leaves ~25 s per run, so the counts are trimmed to
#: ~12 s timed, never below the 120-unit floor.
SIZES: dict[str, Sizes] = {
    "chat_direct": Sizes(latency_units=192, burst_segments=0, passes=3),
    "chat_large": Sizes(latency_units=120, burst_segments=0, passes=2),
    "serve_mixed": Sizes(latency_units=240, burst_segments=8, passes=3,
                         rate_rps=120.0, burst_passes=4),
    "shard_fleet": Sizes(latency_units=120, burst_segments=4, passes=2,
                         rate_rps=40.0, burst_passes=4),
}


def sizes_for(workload: str, seconds: float, smoke: bool = False) -> Sizes:
    if smoke:
        small = SIZES[workload].scaled(1 / 16, floor=False)
        return replace(small, passes=1,
                       burst_passes=min(1, small.burst_passes))
    return SIZES[workload].scaled(seconds / REFERENCE_SECONDS)


# ----------------------------------------------------------------------
# request specs
# ----------------------------------------------------------------------
@dataclass
class Spec:
    """One generated operation in canonical (JSON-able) form.

    ``kind`` is ``read`` (a :class:`ServeRequest`) or ``write`` (a
    catalog edit issued by the generator thread).  ``graph`` is a key
    into the workload's graph table, so a graph shared by many requests
    is serialised once.
    """

    kind: str
    op: str
    text: str = ""
    graph: str | None = None
    graph_name: str | None = None
    session: str | None = None
    #: Write payload: ``{"u", "v"}`` for add_edge, ``{"graph"}`` for
    #: ingest (a key into the graph table).
    payload: dict[str, Any] = field(default_factory=dict)

    def canonical(self) -> dict[str, Any]:
        return {"kind": self.kind, "op": self.op, "text": self.text,
                "graph": self.graph, "graph_name": self.graph_name,
                "session": self.session, "payload": self.payload}


@dataclass
class Workload:
    """Generated inputs of one workload run."""

    name: str
    seed: int
    sizes: Sizes
    #: Graph table: key -> ``repro.graphs.io.to_dict`` document.
    graphs: dict[str, dict[str, Any]]
    #: Latency-phase operations in schedule order (reads and writes).
    latency: list[Spec]
    #: Burst-phase reads; ``SEGMENT`` consecutive specs form one unit.
    burst: list[Spec] = field(default_factory=list)
    #: Catalog graphs ingested during set-up: name -> graph key.
    catalog: dict[str, str] = field(default_factory=dict)

    def canonical_bytes(self) -> bytes:
        document = {
            "name": self.name, "seed": self.seed,
            "rate_rps": self.sizes.rate_rps,
            "graphs": self.graphs, "catalog": self.catalog,
            "latency": [spec.canonical() for spec in self.latency],
            "burst": [spec.canonical() for spec in self.burst],
        }
        return json.dumps(document, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=True).encode("ascii")

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def build_graph(self, key: str) -> Any:
        """A fresh graph object, as a client upload would produce."""
        return from_dict(self.graphs[key])

    def request(self, spec: Spec, graph: Any = None,
                session_suffix: str = "") -> ServeRequest:
        """Materialise a read spec into the object the program receives."""
        session = (None if spec.session is None
                   else spec.session + session_suffix)
        return ServeRequest(
            op=spec.op, text=spec.text, graph=graph,
            graph_name=spec.graph_name, session_id=session,
            client_id=session or "ledger")

    def reads(self) -> list[Spec]:
        return [spec for spec in self.latency + self.burst
                if spec.kind == "read"]


# ----------------------------------------------------------------------
# graph grids
# ----------------------------------------------------------------------
def to_dict(graph: Any) -> dict[str, Any]:
    """Graph document with attribute keys in sorted order.

    The shard pipe carries canonical (key-sorted) JSON, so a graph that
    crossed it has its node/edge attributes in sorted insertion order;
    ``export_graph`` answers print attributes in insertion order and
    would differ from the scalar reference on that alone.  Uploading
    documents already in canonical order keeps the byte-parity check
    about the program's results, not about dict ordering.
    """
    return json.loads(json.dumps(_to_dict(graph), sort_keys=True))


def _spread(low: int, high: int, count: int, phase: float) -> list[int]:
    """``count`` sizes evenly spaced over ``[low, high]``.

    ``phase`` in [0, 1) shifts the grid by a fraction of one step, so
    successive blocks do not repeat the exact same sizes.
    """
    step = (high - low) / count
    return [int(low + (index + phase) * step) for index in range(count)]


def _small_graph(kind: str, size: int, seed: int) -> Any:
    if kind == "social":
        return social_network(size, max(2, size // 20), seed=seed)
    if kind == "kg":
        return knowledge_graph(size, 3 * size, seed=seed)
    # molecule: ``size`` counts rings; 2-5 rings is 15-40 atoms
    return molecule_like_graph(size, 3 + size % 3, seed=seed)


def _large_graph(kind: str, size: int, seed: int) -> Any:
    if kind == "social":
        return social_network(size, max(2, size // 25), seed=seed)
    if kind == "ba":
        return ba_graph(size, 4, seed=seed)
    return knowledge_graph(size, 4 * size, seed=seed)


#: One block of ``chat_direct``: kind -> (count, low, high).  A block is
#: a complete mini-grid, so any whole number of blocks (``shard_fleet``
#: takes a prefix of the list) has the same composition.
DIRECT_BLOCK = {"social": (20, 20, 80), "kg": (20, 20, 80),
                "molecule": (8, 2, 6)}
LARGE_BLOCK = {"social": (10, 100, 160), "ba": (10, 100, 170),
               "kg": (10, 150, 240)}


def _grid_requests(rng: random.Random, units: int,
                   block: dict[str, tuple[int, int, int]],
                   build: Any, ops: tuple[str, ...]
                   ) -> tuple[dict[str, dict[str, Any]], list[Spec]]:
    """Distinct graphs on a stratified size grid, crossed with prompts."""
    graphs: dict[str, dict[str, Any]] = {}
    specs: list[Spec] = []
    block_index = 0
    while len(specs) < units:
        phase = (block_index * 0.37) % 1.0
        chunk: list[Spec] = []
        for kind, (count, low, high) in block.items():
            prompts = (MOLECULE_PROMPTS if kind == "molecule"
                       else GENERAL_PROMPTS)
            offset = rng.randrange(len(prompts))
            sizes = _spread(low, high, count, phase)
            for index, size in enumerate(sizes):
                key = f"{kind}-{block_index}-{index}"
                graphs[key] = to_dict(
                    build(kind, size, rng.randrange(1 << 30)))
                chunk.append(Spec(
                    kind="read", op="ask", graph=key,
                    text=prompts[(offset + index) % len(prompts)]))
        rng.shuffle(chunk)
        specs.extend(chunk)
        block_index += 1
    specs = specs[:units]
    for index, spec in enumerate(specs):
        spec.op = ops[index % len(ops)]
    used = {spec.graph for spec in specs}
    return {key: doc for key, doc in graphs.items() if key in used}, specs


def chat_direct(seed: int, sizes: Sizes) -> Workload:
    rng = random.Random(f"chat_direct-{seed}")
    graphs, specs = _grid_requests(rng, sizes.latency_units, DIRECT_BLOCK,
                                   _small_graph, ("ask",))
    return Workload("chat_direct", seed, sizes, graphs, specs)


def chat_large(seed: int, sizes: Sizes) -> Workload:
    rng = random.Random(f"chat_large-{seed}")
    graphs, specs = _grid_requests(rng, sizes.latency_units, LARGE_BLOCK,
                                   _large_graph, ("ask",))
    return Workload("chat_large", seed, sizes, graphs, specs)


def shard_fleet(seed: int, sizes: Sizes) -> Workload:
    """``chat_direct``'s list (same rng stream) as propose/ask halves."""
    rng = random.Random(f"chat_direct-{seed}")
    total = sizes.latency_units + sizes.burst_segments * SEGMENT
    graphs, specs = _grid_requests(rng, total, DIRECT_BLOCK, _small_graph,
                                   ("propose", "ask"))
    return Workload("shard_fleet", seed, sizes, graphs,
                    specs[:sizes.latency_units],
                    specs[sizes.latency_units:])


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
#: Traffic mix of ``serve_mixed`` (shares of latency-phase operations).
MIX = {"session": 0.40, "hot": 0.35, "named": 0.15, "write": 0.10}
HOT_GRAPHS = 12
CATALOG_GRAPHS = 6
OPEN_SESSIONS = 4


def _quota(total: int, weights: list[float]) -> list[int]:
    """Largest-remainder apportionment of ``total`` by ``weights``."""
    scale = total / sum(weights)
    counts = [int(weight * scale) for weight in weights]
    order = sorted(range(len(weights)),
                   key=lambda i: (counts[i] - weights[i] * scale, i))
    for index in order[:total - sum(counts)]:
        counts[index] += 1
    return counts


def _session_turns(rng: random.Random, turns: int,
                   graphs: dict[str, dict[str, Any]],
                   prefix: str) -> list[Spec]:
    """``turns`` session requests: 3-8 turn dialogs, each re-attaching
    its own graph, at most ``OPEN_SESSIONS`` interleaved."""
    lengths: list[int] = []
    while sum(lengths) < turns:
        lengths.append(3 + len(lengths) % 6)
    lengths[-1] -= sum(lengths) - turns
    waiting: list[list[Spec]] = []
    for index, length in enumerate(lengths):
        if length <= 0:
            continue
        key = f"{prefix}session-{index}"
        kind = ("social", "kg")[index % 2]
        graphs[key] = to_dict(_small_graph(
            kind, 24 + 6 * (index % 7), rng.randrange(1 << 30)))
        waiting.append([
            Spec(kind="read", op="ask", graph=key,
                 session=f"{prefix}s{index}",
                 text=GENERAL_PROMPTS[rng.randrange(len(GENERAL_PROMPTS))])
            for _ in range(length)])
    out: list[Spec] = []
    live = [waiting.pop(0) for _ in range(min(OPEN_SESSIONS, len(waiting)))]
    while live:
        dialog = live[rng.randrange(len(live))]
        out.append(dialog.pop(0))
        if not dialog:
            live.remove(dialog)
            if waiting:
                live.append(waiting.pop(0))
    return out


def _read_mix(rng: random.Random, reads: int,
              graphs: dict[str, dict[str, Any]], catalog: dict[str, str],
              prefix: str) -> list[Spec]:
    """``reads`` requests in the session/hot/named proportions, in a
    seeded order that keeps each session's turns in sequence."""
    read_share = [MIX["session"], MIX["hot"], MIX["named"]]
    n_session, n_hot, n_named = _quota(reads, read_share)
    hot_keys = [f"hot-{index}" for index in range(HOT_GRAPHS)]
    hot_counts = _quota(n_hot, [1.0 / (rank + 1)
                                for rank in range(HOT_GRAPHS)])
    hot = [Spec(kind="read", op="ask", graph=key,
                text=PROMPTS[rng.randrange(len(PROMPTS))])
           for key, count in zip(hot_keys, hot_counts)
           for _ in range(count)]
    names = sorted(catalog)
    named = [Spec(kind="read", op=("ask", "propose")[index % 2],
                  graph_name=names[index % len(names)],
                  text=PROMPTS[rng.randrange(len(PROMPTS))])
             for index in range(n_named)]
    sessions = _session_turns(rng, n_session, graphs, prefix)
    other = hot + named
    rng.shuffle(other)
    slots = ["session"] * len(sessions) + ["other"] * len(other)
    rng.shuffle(slots)
    out = [sessions.pop(0) if slot == "session" else other.pop(0)
           for slot in slots]
    return out


def serve_mixed(seed: int, sizes: Sizes) -> Workload:
    rng = random.Random(f"serve_mixed-{seed}")
    graphs: dict[str, dict[str, Any]] = {}
    for index in range(HOT_GRAPHS):
        kind = ("social", "kg")[index % 2]
        graphs[f"hot-{index}"] = to_dict(_small_graph(
            kind, 24 + 4 * index, rng.randrange(1 << 30)))
    catalog: dict[str, str] = {}
    for index in range(CATALOG_GRAPHS):
        kind = ("social", "kg")[index % 2]
        key = f"catalog-{index}"
        graphs[key] = to_dict(_small_graph(
            kind, 30 + 6 * index, rng.randrange(1 << 30)))
        catalog[f"named-{kind}-{index}"] = key
    #: small patch re-ingested by ``ingest`` writes (undirected and
    #: directed variants, matching the catalog graph it lands in)
    for kind in ("social", "kg"):
        graphs[f"patch-{kind}"] = to_dict(_small_graph(
            kind, 8, rng.randrange(1 << 30)))

    total = sizes.latency_units
    n_write = _quota(total, list(MIX.values()))[3]
    reads = _read_mix(rng, total - n_write, graphs, catalog, "")
    names = sorted(catalog)
    writes: list[Spec] = []
    for index in range(n_write):
        name = names[index % len(names)]
        kind = name.split("-")[1]
        if index % 6 == 5:
            writes.append(Spec(kind="write", op="ingest", graph_name=name,
                               payload={"graph": f"patch-{kind}"}))
            continue
        nodes = [node["id"] for node in graphs[catalog[name]]["nodes"]]
        u, v = rng.sample(nodes, 2)
        payload: dict[str, Any] = {"u": u, "v": v}
        if kind == "kg":  # knowledge APIs expect labelled arcs
            payload["attrs"] = {"relation": rng.choice(KG_RELATIONS)}
        writes.append(Spec(kind="write", op="add_edge", graph_name=name,
                           payload=payload))
    # writes sit on an even grid through the schedule, so every pass
    # and every seed stalls the same number of reads behind a write
    latency = list(reads)
    gap = total / max(1, n_write)
    for index, write in enumerate(writes):
        latency.insert(min(len(latency), int((index + 0.5) * gap)), write)
    burst = _read_mix(rng, sizes.burst_segments * SEGMENT, graphs, catalog,
                      "b")
    return Workload("serve_mixed", seed, sizes, graphs, latency, burst,
                    catalog)


GENERATORS = {"chat_direct": chat_direct, "chat_large": chat_large,
              "serve_mixed": serve_mixed, "shard_fleet": shard_fleet}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int, sizes: Sizes) -> Workload:
    return GENERATORS[workload](seed, sizes)
