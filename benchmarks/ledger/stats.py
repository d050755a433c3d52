"""Statistics, host stamp and memory readings of the ledger benchmark.

The statistic (see README "Statistic"): every unit — one request of a
latency phase, one 32-request segment of a burst phase — is replayed
for K passes; each sample is divided by the host's *slow factor* at
that moment (a calibration kernel timed right before and after it),
the unit keeps its minimum over the passes, and percentiles are taken
across the units' minima.

Why the slow factor: the reference host is a shared 2-vCPU VM whose
speed swings +-20% over seconds (a fixed 10 ms pure-Python kernel read
8.7 ms at best and 12.4 ms at the median, with CPU time tracking wall,
i.e. contention for the core rather than descheduling).  On that fixed
kernel the raw per-unit minimum over K=4 passes of 120 units spread
10% (p50) to 21% (p90) between back-to-back runs; divided by the slow
factor it spread 0.9% and 1.1%.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Sequence



# ----------------------------------------------------------------------
# the calibration kernel
# ----------------------------------------------------------------------
#: Fixed inputs of the kernel: a 192-node adjacency and node labels.
#: The kernel does the *kind* of work the program does per request —
#: dict/set/Counter traffic, tuple and string building, a sort —
#: because how hard a busy neighbour slows code depends on what the
#: code does: a pure arithmetic loop tracked the program's slow-downs
#: visibly worse (throughput spread 7% against 1-3% with this one).
#: It is pure Python on purpose: a numpy call may release the GIL, and
#: re-acquiring it from busy server threads would be clocked as
#: slowness.  It shares no code with the program, so no change to
#: ``src/`` can move it.
_NODES = 192
_ADJACENCY = {node: [(node * 7 + step * 13 + 1) % _NODES
                     for step in range(4)] for node in range(_NODES)}
_LABELS = {node: ("C", "N", "O", "person")[node % 4]
           for node in range(_NODES)}

#: The kernel's uncontended wall time on the reference host (its
#: minimum over 20k runs in each of five processes: 287-295 us).  Times are
#: reported at this speed, so they read as the reference host's
#: milliseconds when nothing else competes for the core.
NOMINAL_KERNEL_S = 290e-6


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel (~0.3 ms)."""
    start = time.perf_counter()
    seen: set[tuple[int, int]] = set()
    order: list[tuple[int, int]] = []
    counts: Counter = Counter()
    for node, neighbours in _ADJACENCY.items():
        for other in neighbours:
            edge = (node, other) if node < other else (other, node)
            if edge not in seen:
                seen.add(edge)
                order.append(edge)
                counts[f"<n:{_LABELS[node]}>"] += 1
    degree = {node: len(neighbours)
              for node, neighbours in _ADJACENCY.items()}
    ranked = sorted(degree.items(), key=lambda kv: (-kv[1], kv[0]))
    paths = [tuple(_ADJACENCY[node][:2]) for node, _ in ranked]
    return time.perf_counter() - start + 0.0 * len(paths)


def kernel_reading(repeats: int = 2) -> float:
    """The smaller of a few back-to-back kernel runs.  The first run
    after a request finds the caches holding the request's data, not
    the kernel's; that is the program's footprint, not the host's
    speed, so a single run is never used as a reading."""
    return min(kernel_seconds() for _ in range(repeats))


def slow_factor(readings: Sequence[float]) -> float:
    """The host's slow factor from a few nearby kernel readings.

    Interference only ever inflates a reading, and it comes in
    sub-millisecond bursts on top of a component that moves over
    hundreds of milliseconds.  Work done near the readings pays the
    slow component, so that is what is estimated: the mean of the lower
    half of the readings, over the nominal kernel time.
    """
    low = sorted(readings)[:max(1, len(readings) // 2)]
    return sum(low) / len(low) / NOMINAL_KERNEL_S


def slow_factors(readings: Sequence[float]) -> list[float]:
    """The slow factor around each unit, where ``readings[i]`` and
    ``readings[i + 1]`` were taken right before and right after unit
    ``i``: from the four readings nearest the unit."""
    return [slow_factor(readings[max(0, index - 1):index + 3])
            for index in range(len(readings) - 1)]


def bracketed(call: Callable[[], Any]) -> tuple[float, Any]:
    """Run ``call``; return its wall seconds over the slow factor read
    right before and after it, and its value."""
    before = kernel_reading(3)
    start = time.perf_counter()
    value = call()
    elapsed = time.perf_counter() - start
    return elapsed / slow_factors([before, kernel_reading(3)])[0], value


def per_unit_min(passes: Sequence[Sequence[float]]) -> list[float]:
    """Minimum of each unit over the passes (all passes equally long)."""
    if not passes:
        raise ValueError("need at least one pass")
    width = len(passes[0])
    if any(len(row) != width for row in passes):
        raise ValueError("passes must time the same units")
    return [min(row[index] for row in passes) for index in range(width)]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond percentile ``q``."""
    return int(math.floor(count * (100.0 - q) / 100.0 + 1e-9))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ms(seconds: float) -> float:
    return seconds * 1e3


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def peak_rss_mb(children: int = 0) -> float:
    """``ru_maxrss`` of this process, plus ``children`` times the
    largest waited-for child's (shard workers, read after ``stop()``)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    total = float(own)
    if children:
        total += children * resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss
    return total / 1024.0  # Linux reports KiB


# ----------------------------------------------------------------------
# host stamp
# ----------------------------------------------------------------------
def host_stamp(repo_root: Path) -> dict[str, Any]:
    import numpy

    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=repo_root,
            capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        describe = "unknown"  # the driver's checkout is not a git repo
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": describe,
        "executable": sys.executable,
    }


def host_class(stamp: dict[str, Any]) -> tuple[Any, ...]:
    """What must match before two results may be compared."""
    python = ".".join(str(stamp.get("python", "")).split(".")[:2])
    return (stamp.get("nproc"), stamp.get("machine"), stamp.get("system"),
            python)
