#!/usr/bin/env python3
"""The ledger benchmark: one command, four workloads, layers from outside.

Driver contract (one workload, one result line)::

    python3 benchmarks/ledger/run.py --workload chat_direct --seed 0 \\
        --seconds 12 --trace 0

Full sets (every workload in its own fresh subprocess)::

    python3 benchmarks/ledger/run.py --seed 0 --out ledger.json
    python3 benchmarks/ledger/run.py --seed 0 --traced --out ledger.json
    python3 benchmarks/ledger/run.py --smoke
    python3 benchmarks/ledger/run.py --aa
    python3 benchmarks/ledger/run.py --compare a.json b.json

See ``README.md`` beside this file for metric definitions, the
statistic, and why each workload was chosen.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
DEFAULT_OUT_DIR = HERE / "results"

_IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import repro; "
    "print(time.perf_counter() - t)")


def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json`` is the one declaration of metric names, units
    and bounds; the harness emits exactly what it lists."""
    with (REPO / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def import_program() -> float:
    """Put the program and the harness on the path; time ``import
    repro``.  Raises ImportError where the program is absent."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    # shard workers are `python -m repro.shard.worker` children that
    # inherit the environment, not sys.path
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([inherited] if inherited else []))
    start = time.perf_counter()
    import repro  # noqa: F401
    return time.perf_counter() - start


def pin_to_one_cpu() -> int | None:
    """Run this process, its threads and every child on one CPU.

    The two vCPUs of the reference host are slowed by different
    neighbours at different moments.  A calibration kernel read on one
    says nothing about work a server thread or a shard process does on
    the other: unpinned, the slow factor and the burst throughput of
    ``serve_mixed`` were uncorrelated and the metric spread 14-28%
    between runs; pinned, 4%.  One GIL-bound process loses nothing on
    one core, and the two shard processes lose their overlap, which no
    metric here is about (``shard_fleet`` exists for the wire, the
    routing and the batching).
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def import_samples(first: float, repeats: int) -> list[float]:
    """``import repro`` wall: this process's own plus one fresh
    interpreter's (more would cost every run a second for a part that
    is a tenth of ``setup_s``)."""
    samples = [first]
    for _ in range(min(repeats, 2) - 1):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_SNIPPET, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip()))
    return samples


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def end_to_end(driver: Any, setup: Any, smoke: bool) -> dict[str, float]:
    from stats import (ms, peak_rss_mb, per_unit_min, percentile,
                       samples_beyond)
    from workloads import SEGMENT

    ledger = driver.ledger
    latency = per_unit_min(ledger.latency)
    if not smoke and samples_beyond(len(latency), 90.0) < 10:
        raise SystemExit(
            f"{len(latency)} latency units keep fewer than 10 samples "
            "beyond p90")
    if ledger.burst:
        segments = per_unit_min(ledger.burst)
        throughput = len(segments) * SEGMENT / sum(segments)
    else:
        throughput = len(latency) / sum(latency)
    raw = per_unit_min(ledger.latency_raw)
    print(f"  as clocked: p50 {ms(percentile(raw, 50.0)):.4f} ms, "
          f"p90 {ms(percentile(raw, 90.0)):.4f} ms; slow factor "
          f"median {percentile(ledger.slow, 50.0):.3f}, "
          f"p90 {percentile(ledger.slow, 90.0):.3f}")
    return {
        "latency_p50_ms": ms(percentile(latency, 50.0)),
        "latency_p90_ms": ms(percentile(latency, 90.0)),
        "throughput_rps": throughput,
        "failed_share": ledger.failed / max(1, ledger.attempted),
        "setup_s": setup.total(),
        "peak_rss_mb": peak_rss_mb(children=driver.shard_count),
    }


def run_workload(args: argparse.Namespace, import_s: float) -> int:
    import drivers
    import workloads
    from stats import host_stamp

    cpu = pin_to_one_cpu()
    spec = load_spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    repeats = 1 if args.smoke else drivers.SETUP_REPEATS
    out_dir = Path(args.out_dir)
    work_dir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    sizes = workloads.sizes_for(args.workload, args.seconds, args.smoke)
    workload = workloads.generate(args.workload, args.seed, sizes)
    sha = workload.sha256()
    gen_s = time.perf_counter() - start
    print(f"workload {workload.name} seed {args.seed}: "
          f"{len(workload.latency)} latency ops, "
          f"{len(workload.burst)} burst reads, K={sizes.passes}"
          f"/{sizes.burst_passes}, "
          f"{len(workload.graphs)} graphs, sha256 {sha}")

    start = time.perf_counter()
    oracle = drivers.Oracle()
    oracle_pretrained_s = time.perf_counter() - start
    oracle.prepare(workload)
    oracle_s = time.perf_counter() - start

    detail: dict[str, Any] = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "request_sha256": sha,
        "sizes": dataclasses.asdict(sizes),
        "host": host_stamp(REPO), "cpu": cpu,
    }
    driver = None
    try:
        start = time.perf_counter()
        setup = drivers.Setup(import_s=import_samples(import_s, repeats))
        driver = drivers.make_driver(workload, oracle, setup, work_dir,
                                     repeats)
        boot_wall_s = time.perf_counter() - start
        start = time.perf_counter()
        driver.warm_up()
        warm_wall_s = time.perf_counter() - start
        timed_start = time.perf_counter()
        if args.trace:
            import layers
            values = layers.traced_run(
                driver, oracle, setup, gen_s, oracle_pretrained_s,
                out_dir / f"trace-{workload.name}.jsonl",
                [entry["name"] for entry in declared])
        else:
            for index in range(sizes.rounds):
                driver.run_pass(index)
        timed_s = time.perf_counter() - timed_start
    finally:
        if driver is not None:
            driver.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
    if not args.trace:
        values = end_to_end(driver, setup, args.smoke)

    ledger = driver.ledger
    for name, phase in ledger.phases.items():
        print(f"  phase {name}: " + " ".join(
            f"{key}={value}" for key, value in phase.to_dict().items()))
    units = {entry["name"]: entry["unit"] for entry in
             spec["end_to_end"] + spec["per_layer"]}
    units.setdefault("failed_share", "ratio")
    samples = len(ledger.latency[0]) if ledger.latency else 0
    for name, value in values.items():
        note = (f"  (n={samples})" if name.startswith("latency_") else "")
        print(f"  {name} = {value:.6g} {units.get(name, '')}{note}")
    print(f"  wall: generate {gen_s:.2f} s, oracle {oracle_s:.2f} s, "
          f"set-up {boot_wall_s:.2f} s, warm-up "
          f"{warm_wall_s:.2f} s, timed {timed_s:.2f} s")
    print(f"  reply_digest {ledger.reply_digest}")

    missing = [entry["name"] for entry in declared
               if entry["name"] not in values]
    if missing:
        raise SystemExit(f"harness did not produce metrics: {missing}")
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]}
               for entry in declared}
    result = {"correct": ledger.failed == 0,
              "attempted": max(1, ledger.attempted),
              "failed": ledger.failed, "metrics": metrics}
    detail.update({
        "result": result, "values": values,
        "phases": {name: phase.to_dict()
                   for name, phase in ledger.phases.items()},
        "reply_digest": ledger.reply_digest,
        "setup": {"import_s": setup.import_s,
                  "pretrained_s": setup.pretrained_s,
                  "boot_s": setup.boot_s, "warmup_s": setup.warmup_s},
        "gen_s": gen_s, "oracle_s": oracle_s, "timed_s": timed_s,
    })
    out_dir.mkdir(parents=True, exist_ok=True)
    sidecar = out_dir / (f"{workload.name}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    sidecar.write_text(json.dumps(detail, indent=1, sort_keys=True),
                       encoding="utf-8")
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# full sets
# ----------------------------------------------------------------------
def run_set(args: argparse.Namespace, trace: int,
            out_dir: Path) -> dict[str, Any]:
    """Every workload once, each in its own fresh subprocess."""
    results: dict[str, Any] = {}
    from workloads import WORKLOADS

    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--out-dir", str(out_dir)]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=900)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"workload {name} exited {done.returncode}")
        sidecar = out_dir / f"{name}-seed{args.seed}-trace{trace}.json"
        results[name] = json.loads(sidecar.read_text(encoding="utf-8"))
    return results


def full_run(args: argparse.Namespace) -> dict[str, Any]:
    from stats import host_stamp

    out_dir = Path(args.out_dir)
    document: dict[str, Any] = {
        "schema": "ledger/1", "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "host": host_stamp(REPO),
        "workloads": {name: entry["result"] | {
            "values": entry["values"], "phases": entry["phases"],
            "request_sha256": entry["request_sha256"],
            "reply_digest": entry["reply_digest"], "sizes": entry["sizes"]}
            for name, entry in run_set(args, 0, out_dir).items()},
    }
    if args.traced:
        document["traced"] = {
            name: entry["result"] | {"values": entry["values"]}
            for name, entry in run_set(args, 1, out_dir).items()}
    return document


def write_out(args: argparse.Namespace, document: dict[str, Any]) -> None:
    if args.out:
        Path(args.out).write_text(
            json.dumps(document, indent=1, sort_keys=True), encoding="utf-8")
        print(f"wrote {args.out}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds the operation counts are "
                        "sized for (default: run_seconds of "
                        "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="full set: repeat every workload traced")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/16 size, K=1")
    parser.add_argument("--aa", action="store_true",
                        help="two full sets back to back, compared")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--out", help="write the full-set result here")
    parser.add_argument("--out-dir", default=str(DEFAULT_OUT_DIR))
    args = parser.parse_args(argv)

    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"cannot import the program under {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])

    import compare
    import workloads
    if args.workload and args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    if args.compare:
        first, second = (json.loads(Path(path).read_text(encoding="utf-8"))
                         for path in args.compare)
        return compare.report(first, second, load_spec())
    if args.workload:
        return run_workload(args, import_s)
    document = full_run(args)
    if args.aa:
        second = full_run(args)
        document = {"first": document, "second": second}
        write_out(args, document)
        return compare.report(document["first"], second, load_spec())
    write_out(args, document)
    failed = [name for name, entry in document["workloads"].items()
              if not entry["correct"]]
    if failed:
        print(f"incorrect workloads: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
