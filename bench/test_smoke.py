"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 -m pytest bench/test_smoke.py -q

Each run must print every metric BENCHMARK.json names for its mode, each
above 0, with no failed operation.  A directory holding only BENCHMARK.json and bench/
must make the benchmark exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("unsat-scan", "sat-early", "combinatorics")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_without_errors(workload, trace):
    spec = _spec()
    assert workload in [w["name"] for w in spec["workloads"]]
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    named = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
    assert result["correct"] is True and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    assert report["error_rate"] == 0
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in named)


def test_fails_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = _run(tmp_path, "sat-early", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
