"""``serve_mixed`` across the server's coalescing knobs.

Times the ledger's ``serve_mixed`` workload (its generator, oracle,
driver and end-to-end statistic) with ``ServeConfig.microbatch_size``
and ``microbatch_deadline_seconds`` set explicitly, one configuration
per fresh pinned subprocess, in alternating rounds (the configuration
order reverses every round, so drift on a shared host spreads over all
of them).  This is the evidence for the serving defaults.

    python3 benchmarks/coalescing_sweep.py                # full grid
    python3 benchmarks/coalescing_sweep.py --rounds 5 --sizes 0,8
    python3 benchmarks/coalescing_sweep.py --one 8 0      # one run

The grid is ``--sizes`` x ``--deadlines-ms`` (default {0, 4, 8, 16, 32}
x {0, 1, 5} ms); a size of 0 never coalesces, so it runs at deadline 0
only.  Every run prints one JSON line (throughput, latency p50/p90,
peak RSS, the mean shared-pass size, the share of requests served off a
shared pass, failed operations and the reply digest, which must not
depend on the configuration); the sweep ends with a markdown table of
per-configuration medians.  It is not part of the ledger benchmark.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

LEDGER = Path(__file__).resolve().parent / "ledger"
sys.path.insert(0, str(LEDGER))

import run as ledger  # noqa: E402


def measure(size: int, deadline_ms: float, seed: int,
            seconds: float) -> dict:
    """One ``serve_mixed`` run as the ledger times it, with the
    coalescing knobs set to (``size``, ``deadline_ms``)."""
    import_s = ledger.import_program()
    ledger.pin_to_one_cpu()
    import drivers
    import workloads
    from repro import ChatGraph, ChatGraphServer, ServeConfig
    from stats import bracketed

    class SweepDriver(drivers.ServeMixedDriver):
        """``ServeMixedDriver`` with an explicit ``ServeConfig``."""

        def boot(self) -> ChatGraphServer:
            seconds, chatgraph = bracketed(
                lambda: ChatGraph.pretrained(seed=0))
            self.setup.pretrained_s.append(seconds)
            booting = time.perf_counter()
            self._boots += 1
            server = ChatGraphServer(chatgraph, ServeConfig(
                store_root=str(self.work_dir / f"store-{self._boots}"),
                queue_depth=4 * workloads.SEGMENT,
                microbatch_size=size,
                microbatch_deadline_seconds=deadline_ms / 1e3))
            server.start()
            for name, key in self.workload.catalog.items():
                graph = self.workload.build_graph(key)
                handle = server.catalog.create(name,
                                               directed=graph.directed)
                handle.ingest(graph)
            self.setup.boot_s.append(time.perf_counter() - booting)
            return server

    sizes = workloads.sizes_for("serve_mixed", seconds)
    workload = workloads.generate("serve_mixed", seed, sizes)
    oracle = drivers.Oracle()
    oracle.prepare(workload)
    setup = drivers.Setup(import_s=[import_s])
    work_dir = Path(tempfile.mkdtemp(prefix="coalescing-sweep-"))
    driver = None
    try:
        driver = SweepDriver(workload, oracle, setup, work_dir,
                             drivers.SETUP_REPEATS)
        driver.warm_up()
        for index in range(sizes.rounds):
            driver.run_pass(index)
        shared = driver.server.metrics.histogram("microbatch_size")
        counters = driver.server.stats()["counters"]
    finally:
        if driver is not None:
            driver.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
    values = ledger.end_to_end(driver, setup, smoke=False)
    return {
        "microbatch_size": size,
        "deadline_ms": deadline_ms,
        "seed": seed,
        "throughput_rps": round(values["throughput_rps"], 1),
        "latency_p50_ms": round(values["latency_p50_ms"], 4),
        "latency_p90_ms": round(values["latency_p90_ms"], 4),
        "peak_rss_mb": round(values["peak_rss_mb"], 1),
        "shared_pass_size_mean": round(shared.mean, 2) if shared.count
        else 0.0,
        "shared_share": round(counters.get("microbatched", 0) / sum(
            value for name, value in counters.items()
            if name.startswith("op_")), 3),
        "failed": driver.ledger.failed,
        "reply_digest": driver.ledger.reply_digest[:16],
    }


def sweep(args: argparse.Namespace) -> None:
    configs = [(size, deadline) for size in args.sizes
               for deadline in args.deadlines_ms
               if size > 1 or deadline == args.deadlines_ms[0]]
    runs: dict[tuple[int, float], list[dict]] = {c: [] for c in configs}
    for index in range(args.rounds):
        order = configs if index % 2 == 0 else configs[::-1]
        for size, deadline in order:
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--one",
                 str(size), str(deadline), "--seed", str(args.seed),
                 "--seconds", str(args.seconds)],
                capture_output=True, text=True, timeout=900, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            print(json.dumps(result), flush=True)
            runs[(size, deadline)].append(result)
    print()
    print(f"seed {args.seed}, {args.rounds} alternating rounds; medians "
          "(throughput min-max)")
    print()
    print("| size | deadline | req/s | min-max | p50 ms | p90 ms "
          "| pass size | shared | failed |")
    print("|---|---|---|---|---|---|---|---|---|")
    for (size, deadline), results in runs.items():
        def mid(key: str) -> float:
            return statistics.median(r[key] for r in results)
        rps = [r["throughput_rps"] for r in results]
        print(f"| {size} | {deadline:g} ms | {mid('throughput_rps'):.0f} "
              f"| {min(rps):.0f}-{max(rps):.0f} "
              f"| {mid('latency_p50_ms'):.3f} "
              f"| {mid('latency_p90_ms'):.3f} "
              f"| {mid('shared_pass_size_mean'):.2f} "
              f"| {mid('shared_share'):.0%} "
              f"| {sum(r['failed'] for r in results)} |")
    digests = {r["reply_digest"] for results in runs.values()
               for r in results}
    print()
    print(f"reply digests: {sorted(digests)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", default="0,4,8,16,32",
                        type=lambda text: [int(v) for v in text.split(",")])
    parser.add_argument("--deadlines-ms", default="0,1,5",
                        type=lambda text: [float(v)
                                           for v in text.split(",")])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--one", nargs=2, metavar=("SIZE", "DEADLINE_MS"),
                        help="run one configuration in this process")
    args = parser.parse_args()
    if args.one:
        size, deadline = int(args.one[0]), float(args.one[1])
        print(json.dumps(measure(size, deadline, args.seed, args.seconds)))
    else:
        sweep(args)


if __name__ == "__main__":
    main()
