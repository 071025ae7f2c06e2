"""The benchmark harness under perfbench/ runs end to end on this source."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_bench(tmp_path, *args: str) -> dict:
    """perfbench/run.py on copies of src/ and perfbench/ in tmp_path, so
    that its .bench_work/ lands there; returns its closing JSON line."""
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / ".bench_work").is_dir()
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_airports_run_is_correct(tmp_path):
    # perfbench/tracing.py wraps effx functions by name and reads
    # effx.lp.LpOptions and effx.lp.CycleLimitExceeded, so a rename or a
    # deletion in src/ breaks it; a traced run exercises all of them.
    last = run_bench(tmp_path, "--workload", "airports", "--seed", "1", "--seconds", "0.5", "--trace", "1")
    assert last["correct"] is True
    assert last["failed"] == 0


def test_untraced_regression_run_is_correct(tmp_path):
    # Checks every printed Tobit estimate against the independent BFGS fit
    # of perfbench/oracles.tobit_mle on 20,000 rows.
    last = run_bench(tmp_path, "--workload", "regression", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert last["correct"] is True
    assert last["failed"] == 0


def test_untraced_frontier_run_is_correct(tmp_path):
    # Checks the scores and classes of a sample of units of the n = 1500
    # frontier set against the HiGHS solves of perfbench/oracles.dea_oracle.
    last = run_bench(tmp_path, "--workload", "frontier", "--seed", "1", "--seconds", "0.5", "--trace", "0")
    assert last["correct"] is True
    assert last["failed"] == 0
