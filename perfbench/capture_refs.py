"""Write the reference outputs of the airports workload.

For every covariate set in the pool, runs ``effx pipeline --fixture
--covariates <set>`` and stores its stdout bytes in ``perfbench/ref/``.
The stored files were captured at the commit that defined the benchmark;
rerun this only to re-baseline deliberately, from the root of a checkout:

    python3 perfbench/capture_refs.py
"""

from __future__ import annotations

import sys

import run
import workloads
from oracles import REF_DIR


def main() -> int:
    cli = run.import_effx()
    work = run.WORK / "refs"
    work.mkdir(parents=True, exist_ok=True)
    REF_DIR.mkdir(exist_ok=True)
    for k in range(workloads.AIRPORTS_POOL):
        path = work / f"covariates_{k:02d}.csv"
        path.write_text(workloads.airports_covariates(k), "utf-8")
        code, out, error, _ = run.call(cli.run, ["pipeline", "--fixture", "--covariates", str(path)])
        if code:
            sys.exit(f"covariate set {k}: exit {code} ({error})")
        (REF_DIR / f"airports_{k:02d}.out").write_text(out, "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
