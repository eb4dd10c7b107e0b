"""Tests of the benchmark itself: every workload at toy size, in both modes,
prints every metric named in BENCHMARK.json with its unit; a corrupted
output counts as a failed op; and without the package the run fails.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_runnable_workloads_and_bounded_metrics():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCH["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert "setup_s" in {m["name"] for m in BENCH["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
                 "--scale", "tiny"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    table = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in table}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    detail = json.loads(lines[-2])["detail"]
    assert detail["env"]["nproc"] >= 1 and detail["env"]["kernel_backend"] in ("numpy", "numba")
    assert detail["inputs"] and all("edges_sha256" in d for d in detail["inputs"])


def _corrupt_train(out):
    _, metrics = out
    metrics.loss = np.append(metrics.loss[:-1], np.nan)
    return out


def _corrupt_propagate(result):
    result.y = result.y + 1e-3
    return result


def _corrupt_solve(out):
    out[0].y = out[0].y + 1e-3
    return out


@pytest.mark.parametrize("workload, corrupt", [
    ("train-sbm", _corrupt_train),
    ("robust-cold", _corrupt_propagate),
    ("implicit-large", _corrupt_solve),
])
def test_corrupted_output_counts_as_failed_op(workload, corrupt):
    wl = workloads.WORKLOADS[workload](5, "tiny")
    _, records = run.run_workload(wl, 0.0, corrupt=corrupt)
    attempted, failed = run.counts(records)
    assert attempted >= 1 and failed == attempted
    assert run.end_to_end(wl, [1.0], records)["ok_share"] == 0.0


def test_without_the_package_the_run_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(BENCH["command"] + ["--workload", "robust-cold", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
