"""The benchmark harness under perfbench/ runs end to end on this source."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_airports_run_is_correct(tmp_path):
    # perfbench/tracing.py wraps effx functions by name and reads
    # effx.lp.LpOptions and effx.lp.CycleLimitExceeded, so a rename or a
    # deletion in src/ breaks it; a traced run exercises all of them.
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "airports", "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    assert (tmp_path / ".bench_work").is_dir()
