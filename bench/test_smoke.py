"""Smoke test for the benchmark: every workload at a tiny size, in both modes.

Checks that each metric BENCHMARK.json declares is emitted with its unit,
that the output check passes, and that the benchmark refuses to run where
the dime sources are missing.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (the benchmark module, found through BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", (False, True), ids=("end_to_end", "per_layer"))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_declared_metric(workload, trace):
    result = run.run_workload(workload, seed=3, seconds=0, trace=trace, scale=0.02)
    assert result["correct"], result["notes"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert metric["better"] in ("higher", "lower")
        assert isinstance(result["metrics"][metric["name"]]["value"], (int, float))


def test_default_seed_digests_are_recorded():
    assert set(run.DEFAULT_DIGESTS) == set(run.WORKLOADS)
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in run.DEFAULT_DIGESTS.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "loopnest",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
