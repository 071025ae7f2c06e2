"""The scripts under scripts/ run end to end from a checkout."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import effx.numerics

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, capture_output=True, text=True, env=env, timeout=300,
    )


def test_reproduce_tables(tmp_path):
    proc = run_script("reproduce_tables.py", "--out-dir", str(tmp_path / "results"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "overall-efficient units (crs):" in proc.stdout
    for name in ("summary_statistics.csv", "efficiency_scores.csv"):
        assert (tmp_path / "results" / name).is_file()


def test_coverage_experiment(tmp_path):
    proc = run_script("coverage_experiment.py", "--reps", "20", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("replications: 20, n per sample: 500")


def test_erfcx_table_is_what_the_script_generates():
    spec = importlib.util.spec_from_file_location("erfcx_table", ROOT / "scripts" / "erfcx_table.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.K == effx.numerics._ERFCX_K
    np.testing.assert_array_equal(np.array(module.table()), effx.numerics._ERFCX_POLY)
