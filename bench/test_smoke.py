"""Smoke test of the benchmark at its shortest length (``--seconds 0``, so
each run makes its minimum number of sweeps): every workload, untraced and
traced, must run correctly, pass the CSV digest check and emit every
metric of its kind, each with the unit BENCHMARK.json gives.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# per-layer metrics each workload must exercise (non-zero); every traced run
# emits all of BENCHMARK.json's per-layer metrics, and those of layers it
# does not exercise read 0
EXPERIMENTS = {"experiments.task_ms_sum", "experiments.overhead_ms",
               "experiments.summarize_ms", "experiments.csv_ms",
               "experiments.self_ms", "trace.tasks_per_s_ratio"}
EXPECTED = {
    "growth-dense": EXPERIMENTS | {
        "generators.busy_ms", "generators.self_ms", "generators.edges",
        "generators.edges_per_s", "generators.peak_alloc_mb", "graph.peak_alloc_mb",
        "graph.build_ms", "graph.score_ms", "heuristics.swap_ms",
        "heuristics.swap_self_ms", "heuristics.swaps", "heuristics.edges_per_s"},
    "threshold-sparse": EXPERIMENTS | {
        "generators.busy_ms", "generators.edges", "graph.relabel_ms",
        "graph.components_ms", "graph.components"},
    "witness": EXPERIMENTS | {
        "spectral.witness_ms", "spectral.prune_ms", "spectral.subgraph_ms",
        "spectral.gap_ms", "spectral.gap_iterations", "spectral.unconverged_frac",
        "spectral.removed_edge_frac", "spectral.self_ms"},
    "exact": EXPERIMENTS | {
        "oracle.busy_ms", "oracle.partitions_scanned", "oracle.partitions_per_s",
        "oracle.self_ms"},
}


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    return {name: (metric["value"], metric["unit"])
            for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    emitted = run(workload, 0)
    assert {name: unit for name, (_, unit) in emitted.items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in emitted.values())


def test_per_layer_metrics():
    """Each traced run emits every per-layer metric BENCHMARK.json names,
    the layers its workload exercises are non-zero, and the spectral
    metrics are 0 outside ``witness``."""
    for workload in WORKLOADS:
        emitted = run(workload, 1)
        assert {name: unit for name, (_, unit) in emitted.items()} == PER_LAYER
        # these ratios may be 0 where the layer ran
        may_be_zero = {"spectral.unconverged_frac", "spectral.removed_edge_frac"}
        idle = [name for name in EXPECTED[workload] - may_be_zero
                if emitted[name][0] == 0]
        assert not idle, (workload, idle)
        if workload != "witness":
            assert not [name for name, (value, _) in emitted.items()
                        if name.startswith("spectral.") and value != 0]


def test_fails_without_sources():
    """Beside BENCHMARK.json and bench/ alone it exits non-zero and prints
    no result."""
    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
