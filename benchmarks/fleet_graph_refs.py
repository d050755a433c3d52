"""Fleet cost of re-submitting one graph object, against fresh objects.

A stateless client that asks several questions about one uploaded graph
(no session) submits the same ``Graph`` object with each question; a
client that rebuilds its graph for every request never does.  This
script times both shapes on a real 2-shard fleet (worker processes),
one shape per run, so graph refs are measured where they can pay off
(``repeat``) and where they can only cost (``fresh``: every request
carries a graph object no request carried before).

    python3 benchmarks/fleet_graph_refs.py --shape repeat
    python3 benchmarks/fleet_graph_refs.py --shape fresh

Work is fixed by ``--graphs`` and ``--asks``: ``--clients`` closed-loop
threads each take a graph and ask its ``--asks`` questions in turn.
Each run prints one JSON line: throughput, latency p50/p90, the
coordinator's and the largest worker's peak RSS, the fleet's
``shard_graph_bodies`` / ``shard_graph_refs`` counters (0 where the
tree has none) and a digest of every answer in request order, which
must not depend on the tree.  It is not part of the ledger benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)
# worker processes inherit the environment, not sys.path
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [part for part in [os.environ.get("PYTHONPATH")] if part])

from repro import ServeConfig, ServeRequest  # noqa: E402
from repro.graphs import knowledge_graph, social_network  # noqa: E402
from repro.shard import ShardModelSpec, ShardedChatGraphServer  # noqa: E402
from repro.testing.workloads import PROMPTS  # noqa: E402


def build_graphs(count: int, seed: int) -> list:
    """Half social, half knowledge graphs of 20-80 nodes, each named
    apart so routing spreads them."""
    rng = random.Random(seed)
    graphs = []
    for index in range(count):
        size = rng.randrange(20, 81)
        graph = (social_network(size, 3, seed=rng.randrange(1 << 30))
                 if index % 2 == 0 else
                 knowledge_graph(size, 2 * size, seed=rng.randrange(1 << 30)))
        graph.name = f"g{seed}-{index}"
        graphs.append(graph)
    return graphs


def plan(graphs: list, asks: int, shape: str, seed: int) -> list[list]:
    """One question list per graph: ``(graph object, text)`` pairs.
    ``fresh`` gives every question its own copy, made before timing."""
    rng = random.Random(seed)
    jobs = []
    for graph in graphs:
        texts = rng.sample(PROMPTS, asks)
        jobs.append([(graph if shape == "repeat" else graph.copy(), text)
                     for text in texts])
    return jobs


def run(jobs: list[list], fleet: ShardedChatGraphServer, clients: int
        ) -> tuple[list[float], dict[int, str], float]:
    """Closed loop: each client takes the next graph and asks its
    questions one after the other."""
    latencies: list[float] = []
    answers: dict[int, str] = {}
    lock = threading.Lock()
    queue = list(enumerate(jobs))

    def client() -> None:
        while True:
            with lock:
                if not queue:
                    return
                job_index, job = queue.pop(0)
            for ask_index, (graph, text) in enumerate(job):
                started = time.perf_counter()
                response = fleet.request(ServeRequest(
                    op="ask", text=text, graph=graph), timeout=60.0)
                elapsed = time.perf_counter() - started
                answer = (response.value.answer if response.ok
                          else f"!{response.error_type}")
                with lock:
                    latencies.append(elapsed)
                    answers[job_index * 1000 + ask_index] = answer

    threads = [threading.Thread(target=client) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, answers, time.perf_counter() - started


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--shape", choices=("repeat", "fresh"),
                        required=True)
    parser.add_argument("--graphs", type=int, default=96)
    parser.add_argument("--asks", type=int, default=4)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    fleet = ShardedChatGraphServer(
        ShardModelSpec(seed=0),
        ServeConfig(shards=2, microbatch_size=8,
                    microbatch_deadline_seconds=0.0,
                    enable_caches=False, queue_depth=64))
    fleet.start()
    try:
        # lazy imports in the fresh workers, on graphs never asked again
        warm = plan(build_graphs(16, args.seed + 1000), 1, "fresh", 0)
        run(warm, fleet, args.clients)
        before = fleet.stats()["counters"]
        jobs = plan(build_graphs(args.graphs, args.seed), args.asks,
                    args.shape, args.seed)
        latencies, answers, wall = run(jobs, fleet, args.clients)
        counters = fleet.stats()["counters"]
    finally:
        fleet.stop()
    latencies.sort()
    digest = hashlib.sha256("\n".join(
        answers[key] for key in sorted(answers)).encode()).hexdigest()
    print(json.dumps({
        "shape": args.shape,
        "requests": len(latencies),
        "failed": sum(answer.startswith("!") for answer in answers.values()),
        "throughput_rps": round(len(latencies) / wall, 1),
        "latency_p50_ms": round(1e3 * statistics.median(latencies), 3),
        "latency_p90_ms": round(
            1e3 * latencies[int(0.9 * (len(latencies) - 1))], 3),
        "coordinator_rss_mb": round(resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "worker_rss_mb": round(resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1),
        **{key: counters.get(f"shard_{key}", 0)
           - before.get(f"shard_{key}", 0)
           for key in ("graph_bodies", "graph_refs")},
        "answers_digest": digest[:16],
    }))


if __name__ == "__main__":
    main()
