"""Smoke test of the solver benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest benchmarks/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import run  # puts the package source on sys.path
import ttkrylov as ttk
from residual import true_relative_residual
from workloads import WORKLOADS, set_up, solve

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# every solver path on a 125-unknown problem; hot spots only hold at full size
TINY = {
    "gmres": replace(WORKLOADS["cd4-gmres"], d=3, n=5, maxit=30, hot_spots=(), accuracy_solves=2),
    "sgmres": replace(WORKLOADS["cd6-sgmres"], d=3, n=5, maxit=30, hot_spots=(), accuracy_solves=2),
    "spgmres": replace(
        WORKLOADS["markov4-spgmres"], problem="cd", d=3, n=5, maxit=30, zeta=3, hot_spots=(), accuracy_solves=2
    ),
}


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "benchmarks/run.py"]


@pytest.mark.parametrize("path", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(path, trace):
    result = run.run_workload(TINY[path], seed=3, seconds=0, trace=trace)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("path", sorted(TINY))
def test_res_true_matches_dense_residual(path):
    w = TINY[path]
    prep = set_up(w, seed=5)
    x, _ = solve(w, prep)
    a, b = ttk.dense_reference(prep.op, prep.rhs)
    dense = np.linalg.norm(b - a @ ttk.tt_to_dense(x).ravel()) / np.linalg.norm(b)
    assert true_relative_residual(prep.op, prep.rhs, x) == pytest.approx(dense, rel=1e-8, abs=1e-14)
    exact = ttk.tt_from_dense(np.linalg.solve(a, b).reshape(prep.rhs.dims))
    assert true_relative_residual(prep.op, prep.rhs, exact) < 1e-12


def test_fails_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "benchmarks").mkdir()
    for f in run.ROOT.joinpath("benchmarks").glob("*.py"):
        shutil.copy(f, tmp_path / "benchmarks")
    args = ["--workload", "cd4-gmres", "--seed", "0", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
