"""Where a served request's CPU goes: a thread-CPU split of ``serve_mixed``.

Runs the ledger's ``serve_mixed`` workload (its generator, driver and
default ``ServeConfig``) with ``time.thread_time`` brackets around
``LocalBackend._serve``, the stage runner and each stage's ``run``, the
sequencer's walk on a cache miss, ``ChainExecutor.execute`` and
``APISpec.call``.  Each bracket keeps its *self* time (its own time
minus the brackets nested in it), so the rows add up to the CPU the
server's workers spent in ``_serve``.  The counters are zeroed after
the warm-up pass; the split covers the burst phase of the timed rounds
only (the latency phase is paced and mostly idle).

    python3 benchmarks/serve_cpu_split.py              # seed 0
    python3 benchmarks/serve_cpu_split.py --seed 1 --json

The brackets cost a few microseconds per call, which land in the rows
they bracket; compare splits taken the same way, not with the ledger's
throughput.  It is not part of the ledger benchmark.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

LEDGER = Path(__file__).resolve().parent / "ledger"
sys.path.insert(0, str(LEDGER))

import run as ledger  # noqa: E402

_local = threading.local()
SELF: defaultdict[str, float] = defaultdict(float)
CALLS: Counter = Counter()


def bracket(owner: type, attr: str, label: str) -> None:
    """Replace ``owner.attr`` by a copy that adds its self thread-CPU
    time to ``SELF[label]``."""
    original = vars(owner)[attr]

    def timed(*args, **kwargs):
        stack = _local.__dict__.setdefault("stack", [])
        stack.append(0.0)
        start = time.thread_time()
        try:
            return original(*args, **kwargs)
        finally:
            spent = time.thread_time() - start
            nested = stack.pop()
            SELF[label] += spent - nested
            CALLS[label] += 1
            if stack:
                stack[-1] += spent

    setattr(owner, attr, timed)


def install() -> None:
    from repro.apis.executor import ChainExecutor
    from repro.apis.registry import APISpec
    from repro.core import stages
    from repro.runtime.local import LocalBackend
    from repro.sequencer.serializer import GraphSequentializer

    bracket(LocalBackend, "_serve", "serve (rest)")
    bracket(stages.StageGraph, "run", "stage runner")
    for cls in vars(stages).values():
        if isinstance(cls, type) and issubclass(cls, stages.Stage) \
                and "run" in vars(cls):
            bracket(cls, "run", f"stage {cls.name}")
    bracket(GraphSequentializer, "_sequentialize", "sequencer walk (miss)")
    bracket(ChainExecutor, "execute", "executor (around calls)")
    bracket(APISpec, "call", "API bodies")


def measure(seed: int, seconds: float) -> dict:
    ledger.import_program()
    ledger.pin_to_one_cpu()
    install()
    import drivers
    import workloads

    sizes = workloads.sizes_for("serve_mixed", seconds)
    workload = workloads.generate("serve_mixed", seed, sizes)
    oracle = drivers.Oracle()
    oracle.prepare(workload)
    setup = drivers.Setup(import_s=[0.0])
    work_dir = Path(tempfile.mkdtemp(prefix="serve-cpu-split-"))
    driver = None
    try:
        driver = drivers.ServeMixedDriver(workload, oracle, setup, work_dir,
                                          repeats=1)
        driver.warm_up()
        SELF.clear()
        CALLS.clear()
        for index in range(sizes.burst_passes):
            driver.burst_pass(f"-p{index}")
        requests = len(workload.burst) * sizes.burst_passes
    finally:
        if driver is not None:
            driver.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
    total = sum(SELF.values())
    return {
        "seed": seed,
        "requests": requests,
        "cpu_s": round(total, 4),
        "us_per_request": round(1e6 * total / max(requests, 1), 1),
        "failed": driver.ledger.failed,
        "rows": {label: {"share": round(SELF[label] / total, 4),
                         "calls": CALLS[label]}
                 for label in sorted(SELF, key=SELF.get, reverse=True)},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--json", action="store_true",
                        help="print the split as one JSON line")
    args = parser.parse_args(argv)
    split = measure(args.seed, args.seconds)
    if args.json:
        print(json.dumps(split))
        return 0
    print(f"serve_mixed seed {split['seed']}, burst phase: "
          f"{split['requests']} requests, {split['cpu_s']:.3f} s thread "
          f"CPU in _serve, {split['us_per_request']:.0f} us/request, "
          f"failed {split['failed']}")
    print()
    print("| where | share | calls |")
    print("|---|---|---|")
    for label, row in split["rows"].items():
        print(f"| {label} | {100 * row['share']:.1f}% | {row['calls']} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
