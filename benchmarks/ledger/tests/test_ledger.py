"""Tests of the ledger benchmark harness.

Run explicitly (tier-1 collects only ``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/ledger/tests -q

Uses no fixture from ``benchmarks/conftest.py`` (pytest still imports
that file, which is why ``PYTHONPATH=src`` is needed).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[1]
REPO = LEDGER.parents[1]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(LEDGER))

import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert SPEC["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert SPEC["run_seconds"] == workloads.REFERENCE_SECONDS
    assert [w["name"] for w in SPEC["workloads"]] == list(
        workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert len((REPO / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_metric_declarations():
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names)), "a name is used once"
    for name in names:
        assert NAME.match(name), name
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    setup = [e for e in SPEC["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


def test_every_size_keeps_ten_samples_beyond_p90():
    for name, sizes in workloads.SIZES.items():
        generated = workloads.generate(name, 0, sizes)
        reads = [s for s in generated.latency if s.kind == "read"]
        assert len(reads) >= workloads.MIN_LATENCY_UNITS, name
        assert stats.samples_beyond(len(reads), 90.0) >= 10, name


# ----------------------------------------------------------------------
# the statistic
# ----------------------------------------------------------------------
def test_per_unit_min_drops_a_noisy_pass():
    clean = [1.0, 2.0, 3.0, 4.0]
    noisy = [1.5, 2.0, 9.0, 4.2]
    assert stats.per_unit_min([noisy, clean, noisy]) == clean
    with pytest.raises(ValueError):
        stats.per_unit_min([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        stats.per_unit_min([])


def test_percentile_interpolates():
    values = list(range(1, 102))  # 1..101
    assert stats.percentile(values, 50.0) == 51
    assert stats.percentile(values, 90.0) == 91
    assert stats.percentile([1.0, 3.0], 50.0) == 2.0
    assert stats.percentile([7.0], 90.0) == 7.0


def test_ten_samples_beyond():
    assert stats.samples_beyond(120, 90.0) == 12
    assert stats.samples_beyond(120, 95.0) == 6
    assert stats.samples_beyond(99, 90.0) == 9
    assert stats.samples_beyond(216, 90.0) == 21


def test_host_class_refuses_different_hosts():
    import compare

    stamp = stats.host_stamp(REPO)
    for key in ("nproc", "platform", "python", "numpy", "git"):
        assert key in stamp
    other = dict(stamp, nproc=(stamp["nproc"] or 0) + 6)
    assert stats.host_class(stamp) != stats.host_class(other)
    result = {"host": stamp, "workloads": {}}
    assert compare.report(result, {"host": other, "workloads": {}},
                          SPEC) == 2
    assert compare.report(result, result, SPEC) == 0


def test_compare_flags_a_breach():
    import compare

    stamp = stats.host_stamp(REPO)
    base = {"latency_p50_ms": 10.0, "latency_p90_ms": 20.0,
            "throughput_rps": 100.0, "setup_s": 4.0, "peak_rss_mb": 60.0,
            "failed_share": 0.0}
    first = {"host": stamp, "workloads": {"chat_direct": {"values": base}}}
    bound = {e["name"]: e["bound"] for e in SPEC["end_to_end"]}[
        "latency_p50_ms"]
    within = dict(base, latency_p50_ms=10.0 * (1 + bound / 2))
    slower = dict(base, latency_p50_ms=10.0 * (1 + bound * 1.2))
    second = {"host": stamp,
              "workloads": {"chat_direct": {"values": slower}}}
    assert compare.report(first, first, SPEC) == 0
    assert compare.report(first, {"host": stamp, "workloads": {
        "chat_direct": {"values": within}}}, SPEC) == 0
    assert compare.report(first, second, SPEC) == 1
    failing = dict(base, failed_share=0.01)
    assert compare.report(first, {"host": stamp, "workloads": {
        "chat_direct": {"values": failing}}}, SPEC) == 1
    assert compare.relative_worsening(100.0, 80.0, "higher") == pytest.approx(
        0.2)
    assert compare.relative_worsening(10.0, 9.0, "lower") == pytest.approx(
        -0.1)


def test_self_time_subtracts_covered_children():
    recorder = spans.Recorder()
    root = recorder.add("request", "r", 0.0, 10.0)
    recorder.add("a", "r", 1.0, 4.0, parent=root.id)
    recorder.add("b", "r", 3.0, 6.0, parent=root.id)  # overlaps a
    recorder.add("c", "r", 8.0, 12.0, parent=root.id)  # clipped at 10
    kids = recorder.children()[root.id]
    assert spans.covered(root, kids) == pytest.approx(7.0)
    assert spans.self_seconds(root, kids) == pytest.approx(3.0)
    assert spans.unexplained_shares(recorder) == [pytest.approx(0.3)]


# ----------------------------------------------------------------------
# the generator
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_byte_deterministic(name):
    sizes = workloads.sizes_for(name, 12, smoke=True)
    first = workloads.generate(name, 0, sizes)
    again = workloads.generate(name, 0, sizes)
    other = workloads.generate(name, 1, sizes)
    assert first.canonical_bytes() == again.canonical_bytes()
    assert first.sha256() == again.sha256()
    assert first.sha256() != other.sha256()
    assert len(first.latency) == sizes.latency_units
    assert len(first.burst) == sizes.burst_segments * workloads.SEGMENT


def test_shard_fleet_reissues_chat_direct():
    sizes = workloads.SIZES["shard_fleet"]
    fleet = workloads.generate("shard_fleet", 3, sizes)
    direct = workloads.generate("chat_direct", 3,
                                workloads.SIZES["chat_direct"])
    total = len(fleet.latency) + len(fleet.burst)
    pairs = [(s.text, s.graph) for s in fleet.latency + fleet.burst]
    assert pairs[:len(direct.latency)] == [
        (s.text, s.graph) for s in direct.latency][:total]
    ops = [s.op for s in fleet.latency + fleet.burst]
    assert ops.count("propose") == ops.count("ask") == total // 2


def test_serve_mixed_composition_is_fixed_across_seeds():
    sizes = workloads.SIZES["serve_mixed"]

    def shape(seed):
        generated = workloads.generate("serve_mixed", seed, sizes)
        ops = generated.latency
        return (sum(s.kind == "write" for s in ops),
                sum(s.session is not None for s in ops),
                sum(s.graph_name is not None and s.kind == "read"
                    for s in ops),
                sorted(generated.catalog))

    assert shape(0) == shape(1)
    writes, sessions, named, _ = shape(0)
    assert writes == 24 and sessions == 96 and named == 36


# ----------------------------------------------------------------------
# the command
# ----------------------------------------------------------------------
def run_ledger(*argv, cwd=REPO):
    return subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), *argv], cwd=cwd,
        capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", (0, 1))
def test_contract_output_on_a_smoke_run(trace, tmp_path):
    done = run_ledger("--workload", "chat_direct", "--seed", "0",
                      "--seconds", "12", "--trace", str(trace), "--smoke",
                      "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
    if trace:
        lines = (tmp_path / "trace-chat_direct.jsonl").read_text(
            encoding="utf-8").splitlines()
        span = json.loads(lines[0])
        assert {"name", "request_id", "parent", "start", "end"} <= set(span)
        assert result["metrics"]["shard.encode_mb_s"]["value"] == 0
        assert result["metrics"]["ledger.unexplained_share"]["value"] <= 0.15
    else:
        for entry in declared:
            assert result["metrics"][entry["name"]]["value"] > 0


def test_smoke_set_reports_every_metric_on_every_workload(tmp_path):
    out = tmp_path / "smoke.json"
    done = run_ledger("--smoke", "--traced", "--out", str(out),
                      "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    document = json.loads(out.read_text(encoding="utf-8"))
    assert set(document["workloads"]) == set(workloads.WORKLOADS)
    for key, declared in (("workloads", SPEC["end_to_end"]),
                          ("traced", SPEC["per_layer"])):
        for name, entry in document[key].items():
            assert entry["correct"] is True, name
            assert {m: v["unit"] for m, v in entry["metrics"].items()} == {
                e["name"]: e["unit"] for e in declared}, name
    for name, entry in document["workloads"].items():
        assert entry["values"]["failed_share"] == 0, name
        assert len(entry["request_sha256"]) == 64
        assert len(entry["reply_digest"]) == 64
    for name, entry in document["traced"].items():
        shard = [value for metric, value in entry["values"].items()
                 if metric.startswith("shard.")]
        assert all(shard) if name == "shard_fleet" else not any(shard)
        assert (tmp_path / f"trace-{name}.jsonl").stat().st_size > 0
    assert document["traced"]["serve_mixed"]["values"][
        "serve.cache_hit_ratio.sequences"] >= 0.7
    for key in ("nproc", "platform", "python", "numpy", "git"):
        assert key in document["host"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files the command exits non-zero and prints no result."""
    import shutil

    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(LEDGER, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns(
                        "results", ".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "chat_direct", "--seed", "0", "--seconds", "12", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert "{" not in done.stdout
