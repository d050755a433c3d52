"""A/A and parent-vs-change comparison of two full-set results."""

from __future__ import annotations

from typing import Any

from stats import host_class


def relative_worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def report(first: dict[str, Any], second: dict[str, Any],
           spec: dict[str, Any]) -> int:
    """Print per metric x workload the relative difference against its
    bound; returns a non-zero exit code on any breach."""
    if host_class(first["host"]) != host_class(second["host"]):
        print("refusing to compare results from different host classes: "
              f"{host_class(first['host'])} vs "
              f"{host_class(second['host'])}")
        return 2
    breaches = 0
    print(f"{'workload':<12} {'metric':<16} {'first':>12} {'second':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for name in first["workloads"]:
        one = first["workloads"][name]["values"]
        two = second["workloads"][name]["values"]
        for entry in spec["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            worse = relative_worsening(one[metric], two[metric],
                                       entry["better"])
            flag = ""
            if worse > bound:
                breaches += 1
                flag = "  BREACH"
            print(f"{name:<12} {metric:<16} {one[metric]:>12.5g} "
                  f"{two[metric]:>12.5g} {worse:>+9.2%} {bound:>6.0%}"
                  f"{flag}")
        # failed_share has no bound in BENCHMARK.json (it is 0 at the
        # landing commit): any increase is a breach
        if two["failed_share"] > one["failed_share"]:
            breaches += 1
            print(f"{name:<12} failed_share rose "
                  f"{one['failed_share']:.4g} -> {two['failed_share']:.4g}"
                  "  BREACH")
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0
