"""Seconds-long self-check of the benchmark: every workload at its smallest
size, traced and untraced, against the names and units in BENCHMARK.json.

    python -m pytest -q bench/test_selfcheck.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    for cell in result["metrics"].values():
        assert set(cell) == {"value", "unit"}
        assert isinstance(cell["value"], (int, float))
    return result


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == \
        ["axioms", "maps-scale", "battery", "cli"]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = _result(_run(workload, 0))["metrics"]
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_the_per_layer_metrics(workload):
    metrics = _result(_run(workload, 1))["metrics"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # The smoke run times the primitives at the desk size only.
    required = {k for k in want if not k.startswith("prim.") or k.endswith(".M3_us")}
    assert required <= set(metrics) <= set(want)
    assert all(want[k] == v["unit"] for k, v in metrics.items())
    assert 0.5 < metrics["trace.attributed_frac"]["value"] <= 1.0 + 1e-9


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("axioms", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_percentiles_stay_inside_the_cluster_that_holds_them():
    sys.path.insert(0, BENCH_DIR)
    from run import trimmed_harrell_davis

    # Five fast call types and four seven times slower, as in battery: the
    # median lies among the fast units, where the untrimmed Harrell-Davis
    # weights (which give 0.022 here) would not keep it.
    fast = [0.010 + 0.0001 * i for i in range(55)]
    slow = [0.070 + 0.0001 * i for i in range(44)]
    assert fast[0] <= trimmed_harrell_davis(fast + slow, 0.5) <= fast[-1]
    assert trimmed_harrell_davis([0.2], 0.5) == 0.2
