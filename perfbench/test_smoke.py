"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload with --size smoke (a 12-participant cohort, one epoch,
seven requests, selection over 40 participants), untraced and traced, so
every workload, every check and the traced run execute in under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(cwd, *args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_passes_its_checks(workload, trace):
    proc = run(ROOT, "--workload", workload, "--trace", trace,
               "--size", "smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    record = json.loads(proc.stdout.splitlines()[-2])["record"]
    assert record["machine"]["nproc"] >= 1 and "contended" in record


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", WORKLOADS[0], "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_zero_call_spans_are_reported():
    sys.path.insert(0, str(HERE))
    import tracer
    empty = {"spans": {}, "counts": {}, "distinct_fits": 0}
    missing = tracer.zero_call_spans("predict-wav", empty, empty)
    assert "features.pitch" in missing and "model.forward.eval" in missing
    assert "relieff.relieff_weights" not in missing
