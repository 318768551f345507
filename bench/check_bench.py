"""Smoke run of every benchmark workload at reduced size.

    python3 -m pytest bench/check_bench.py -q

The file name keeps it out of the repository's default test collection;
each case starts fresh benchmark processes (about a minute in all).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# per-layer metrics that must be measured (nonzero) on each workload; the rest report 0
ALWAYS = {
    "grids.fg_ns_per_node.2d", "grids.fg_evals", "grids.model_builds", "grids.model_build_ms",
    "descent.iterations", "descent.fg_evals", "descent.fg_per_iter", "descent.self_ns_per_node_iter",
    "cell.glue_ns_per_node", "profile.build_ms", "profile.eval_ns_per_point",
}
PROBES = {"cell.iters.probe", "cell.iters.fine", "cell.probe_waste_iter_frac", "cell.fine_residual_scaled_max"}
LAYERS_RUN = {
    "oracle": ALWAYS | PROBES | {"grids.fg_ns_per_node.3d", "lattice.rotation_ms"},
    "polar": ALWAYS | PROBES | {"lattice.rotation_ms", "config.parse_ms", "cli.self_ms"},
    "diffuse": ALWAYS | {"gamma.recovery_build_ms", "gamma.mass_glue_ns_per_node", "tiling.competitor_build_ms"},
}
MAY_BE_ZERO = {"descent.backtracks", "trace.overhead_s"}


def bench(workload: str, seed: int, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout
    return result


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_and_gates_pass(workload):
    result = result_of(bench(workload, seed=5, trace=0))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_printed_and_counts_repeat(workload):
    first, second = (result_of(bench(workload, seed=7, trace=1)) for _ in range(2))
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, metric in first["metrics"].items():
        if name in LAYERS_RUN[workload]:
            assert metric["value"] > 0, name
        elif name not in MAY_BE_ZERO:
            assert metric["value"] == 0, name
    for spec in SPEC["per_layer"]:
        if spec["unit"] == "count":
            assert first["metrics"][spec["name"]] == second["metrics"][spec["name"]], spec["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = bench("oracle", seed=1, trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
