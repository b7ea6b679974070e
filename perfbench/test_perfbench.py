"""Smoke tests of the perfbench benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

The reduced-size runs take a few seconds each; the three tests that pin
the CI smokes' simulated outputs run those smokes at full size (the
multi-region one takes about 20 s).
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]


def bench(workload: str, trace: int, *, cwd: Path = ROOT,
          script: Path = HERE / "run.py"):
    completed = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return completed


def result_of(completed):
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()
    fingerprint = next(line for line in lines
                       if line.startswith("fingerprint:"))
    return json.loads(lines[-1]), fingerprint


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_reduced_run_reports_every_end_to_end_metric(workload):
    result, _ = result_of(bench(workload, 0))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == END_TO_END
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_reports_every_layer_metric_and_matches_untraced(
        workload):
    traced, traced_fingerprint = result_of(bench(workload, 1))
    _, untraced_fingerprint = result_of(bench(workload, 0))
    assert traced["correct"] is True
    assert list(traced["metrics"]) == PER_LAYER
    assert traced_fingerprint == untraced_fingerprint


def repetitions(workload):
    mark = tracing.RunMark()
    mark.install()
    try:
        untraced = [workload.execute(mark)]
        traced = [run.traced_execute(workload, mark,
                                     tracing.LayerProfiler())]
    finally:
        mark.uninstall()
    return untraced, traced


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_computed_metrics_are_exactly_the_declared_ones(workload):
    untraced, traced = repetitions(workloads.WORKLOADS[workload](3,
                                                                 "small"))
    assert untraced[0].ok and traced[0].ok
    assert set(run.end_to_end(untraced)) == set(END_TO_END)
    assert set(run.per_layer(untraced, traced)) == set(PER_LAYER)
    assert traced[0].fingerprint == untraced[0].fingerprint


def test_profiler_puts_every_original_back():
    from repro.net.simulator import Simulator
    from repro.protocols.registry import ProtocolSpec
    from repro.store import cluster as store_cluster
    before = (Simulator.run, ProtocolSpec.build, store_cluster.launch,
              vars(tracing.ArraySkipRotatingVector).get("copy"))
    profiler = tracing.LayerProfiler()
    profiler.install()
    assert Simulator.run is not before[0]
    profiler.uninstall()
    after = (Simulator.run, ProtocolSpec.build, store_cluster.launch,
             vars(tracing.ArraySkipRotatingVector).get("copy"))
    assert after == before
    assert profiler._on_gc not in gc.callbacks


def test_gc_pause_is_charged_apart_from_the_allocating_layer():
    profiler = tracing.LayerProfiler()
    gc.callbacks.append(profiler._on_gc)
    try:
        def allocate_and_collect():
            garbage = [[i] for i in range(200_000)]
            gc.collect()
            return len(garbage)

        start = time.perf_counter()
        profiler.root(profiler.timed("store", allocate_and_collect, "x"))
        wall = time.perf_counter() - start
    finally:
        gc.callbacks.remove(profiler._on_gc)
    assert profiler.gc_collections[2] >= 1
    assert 0 < profiler.gc_pause_s < wall
    # Self times and pauses tile the root span: nothing counted twice.
    attributed = sum(profiler.self_s.values()) + profiler.gc_pause_s
    assert attributed == pytest.approx(wall, abs=2e-3)
    assert min(profiler.self_s.values()) >= 0


def test_without_the_program_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    completed = bench("fleet-ring", 0, cwd=tmp_path,
                      script=tmp_path / "perfbench" / "run.py")
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_run_all_gates_a_reduced_set(tmp_path):
    out = tmp_path / "results.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "run_all.py"), "--seconds", "0.5",
         "--size", "small", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    for metric in END_TO_END:
        assert f"  {metric} = " in completed.stdout
    document = json.loads(out.read_text(encoding="utf-8"))
    assert set(document["host"]) >= {"python", "nproc", "cpu_model"}
    assert sorted(document["workloads"]) == sorted(WORKLOAD_NAMES)
    for pair in document["workloads"].values():
        assert "tracing_overhead_s" in pair["traced"]["metrics"]


def full_size(cls):
    mark = tracing.RunMark()
    mark.install()
    try:
        outcome = cls(0, "full").execute(mark)
    finally:
        mark.uninstall()
    assert outcome.ok, outcome.gate_failures
    return outcome.fingerprint


def test_store_demo_reproduces_the_demo_smoke():
    fingerprint = full_size(workloads.StoreDemo)
    assert fingerprint["total_bits"] == 2_339_645
    assert fingerprint["state_sha256"].startswith("ea2fcbb9")
    assert fingerprint["audit"]["violations"] == 11_500


def test_fleet_ring_reproduces_the_n1000_smoke():
    fingerprint = full_size(workloads.FleetRing)
    assert fingerprint["sessions"] == 1_998
    assert fingerprint["total_bits"] == 1_023_056


def test_full_multiregion_reproduces_the_fleet_smoke():
    fingerprint = full_size(workloads.FleetMultiRegion)
    assert fingerprint["sessions"] == 36_434
    assert fingerprint["total_bits"] == 427_428
    assert fingerprint["retransmitted_bits"] == 7_021
