"""Smoke test of the benchmark: every workload at tiny sizes, one pass.

Run from the repository root (it is not part of the tier-1 suite):

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def result(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res


def units(res):
    return {k: v["unit"] for k, v in res["metrics"].items()}


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics(workload):
    res = result(workload, 0)
    assert units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_emits_per_layer_metrics(workload):
    res = result(workload, 1)
    assert units(res) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_counts_repeat_for_a_fixed_seed():
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B")]
    first, second = (result("exact-ngon", 1)["metrics"] for _ in range(2))
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["geometry.intervals"]["value"] > 0
    assert first["family.rank_points"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(NAMES[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
