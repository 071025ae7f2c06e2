"""Benchmark of the effx DEA -> Tobit pipeline, driven from outside.

Run from the root of an effx checkout:

    python3 perfbench/run.py --workload airports --seed 1 --seconds 30 --trace 0

Each op is one in-process ``effx.cli.run(argv)`` call on CSV files the
benchmark generated from ``--seed`` before timing starts. One client
issues ops in a closed loop for ``--seconds`` seconds, cycling through
the run's inputs; BLAS is pinned to one thread. Outputs are checked
against independent oracles after the timed loop (see oracles.py).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops and reports per-layer metrics from the traced
ones (see tracing.py), plus the tracing overhead; spans are written as
JSON lines under ``.bench_work/``. Every metric is printed by name with
its unit and sample count; the last line of standard output is one JSON
object with keys correct, attempted, failed and metrics.

``op_s_p90`` is the 90th percentile of op times in every run. A ``tail:``
line names the highest percentile with at least ten samples beyond it;
runs of about a dozen multi-second ops (frontier, regression) reach none.

Workloads: airports, frontier and regression, listed in BENCHMARK.json,
and spread, whose ops mostly fail at the pivot cap today (a known
defect), so it is run on demand rather than by the regression gate.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("EFFX_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
HERE = Path(__file__).resolve().parent  # on sys.path as the script's directory

SETUP_REPEATS = 7
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import effx; print(time.perf_counter() - t)"
)
FRONTIER_SAMPLE = 16  # units re-solved by HiGHS per frontier run
SPREAD_SAMPLE = 3  # per successful spread set


class Op(NamedTuple):
    input: int  # index into the run's argvs
    code: int  # exit code
    error: str  # error name from stderr, "" on success
    seconds: float
    traced: bool
    same: bool  # output equals the first successful output of its input


def import_effx():
    """Import effx from ./src of the checkout, never from elsewhere."""
    if not (SRC / "effx" / "__init__.py").is_file():
        sys.exit(f"perfbench: no effx sources in {SRC}; run from the root of an effx checkout")
    sys.path.insert(0, str(SRC))
    import effx.cli

    if Path(effx.__file__).resolve().parent != (SRC / "effx").resolve():
        sys.exit(f"perfbench: imported effx from {effx.__file__}, not {SRC}")
    return effx.cli


def setup_times() -> list[float]:
    """Wall time of ``import effx`` in fresh interpreters, which every
    CLI invocation pays."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout))
    return times


def call(run, argv: list[str]) -> tuple[int, str, str, float]:
    """One op: (exit code, stdout, error name, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = run(argv)
        except Exception as exc:  # a traceback escaping the CLI fails the op
            code, error = 1, f"traceback:{type(exc).__name__}"
        dt = time.perf_counter() - t0
    if code and not error:
        line = err.getvalue().strip().splitlines()[-1:] or [""]
        error = line[0].split(":")[1].strip() if line[0].startswith("effx:") else f"exit{code}"
    return code, out.getvalue(), error, dt


def tail_percentile(values: list[float]) -> str:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = "none"
    for label, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)):
        if len(values) * (1.0 - q) >= 10:
            best = label
    return best


def check_outputs(wl, canonical: dict[int, str], seed: int) -> list[tuple[int | None, str]]:
    """Oracle problems with the first successful output of each input, as
    (input index, message); index None marks a problem shared by all."""
    problems = []
    if wl.name == "airports":
        from effx.dataset import bundled_fixture
        from effx.dea import DeaOptions, run_frontier

        golden = oracles.check_golden_frontier(run_frontier(bundled_fixture(), DeaOptions()))
        problems += [(None, f"fixture frontier: {p}") for p in golden]
        for k, text in canonical.items():
            if text != oracles.reference_output(wl.meta[k]["pool"]):
                problems.append((k, f"covariate set {wl.meta[k]['pool']}: output differs from reference bytes"))
    elif wl.name in ("frontier", "spread"):
        rng = np.random.default_rng(seed)
        size = FRONTIER_SAMPLE if wl.name == "frontier" else SPREAD_SAMPLE
        for k, text in canonical.items():
            X, Y = wl.meta[k]["X"], wl.meta[k]["Y"]
            sample = sorted(int(j) for j in rng.choice(X.shape[0], size, replace=False))
            problems += [(k, f"input {k}: {p}") for p in oracles.check_dea_table(text, X, Y, sample)]
    elif wl.name == "regression":
        if canonical:
            paths = wl.meta[0]
            problems += [(0, p) for p in oracles.check_regression_table(canonical[0], paths["scores"], paths["covariates"])]
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_effx()
    import tracing  # wraps effx modules, so it imports only after import_effx

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    setup = setup_times() if not args.trace else []

    tracer = tracing.Tracer()
    canonical: dict[int, str] = {}
    ops: list[Op] = []
    call(cli.run, wl.argvs[0])  # warm-up, not counted

    def run_op(k: int, traced: bool):
        op_id = len(ops)
        if traced:
            with tracer.installed():
                code, out, error, dt = call(lambda a: tracer.op_span(op_id, cli.run, a), wl.argvs[k])
        else:
            code, out, error, dt = call(cli.run, wl.argvs[k])
        same = True
        if code == 0:
            same = canonical.setdefault(k, out) == out
        ops.append(Op(k, code, error, dt, traced, same))

    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        k = i % len(wl.argvs)
        if args.trace:
            order = (False, True) if i % 2 == 0 else (True, False)
            for traced in order:
                run_op(k, traced)
        else:
            run_op(k, False)
        i += 1
        if time.perf_counter() >= deadline and (not args.trace or i >= len(wl.argvs)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = check_outputs(wl, canonical, args.seed)
    bad_inputs = {k for k, _ in problems}
    if None in bad_inputs:
        bad_inputs = set(range(len(wl.argvs)))
    attempted = len(ops)
    failed = sum(1 for op in ops if op.code)
    wrong = sum(1 for op in ops if not op.code and (not op.same or op.input in bad_inputs))
    errors = Counter(op.error for op in ops if op.code)

    lines = [
        f"workload={wl.name} seed={args.seed} trace={args.trace} inputs={len(wl.argvs)} "
        f"ops={attempted} failed={failed} wrong={wrong}"
    ]
    lines += [f"error {name}: {count} ops" for name, count in sorted(errors.items())]
    lines += [f"check failed: {p}" for _, p in problems[:20]]
    lines.append(f"checks: {len(problems)} problems in {len(canonical)} distinct outputs")

    untraced = [op for op in ops if not op.traced]
    times = [op.seconds for op in untraced]
    metrics: dict[str, tuple[float, str, int]] = {}
    if not args.trace:
        items = sum(wl.items for op in untraced if not op.code)
        metrics = {
            "setup_s": (statistics.median(setup), "s", len(setup)),
            "op_s_p50": (statistics.median(times), "s", len(times)),
            "op_s_p90": (
                statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0],
                "s",
                len(times),
            ),
            "items_per_s": (items / sum(times), "1/s", len(times)),
            "peak_rss_mb": (peak_rss_mb, "MB", 1),
        }
        lines.append(f"tail: highest percentile with ten samples beyond it is {tail_percentile(times)}")
        shown = {
            **metrics,
            "failed_share": (failed / attempted, "ratio", attempted),
            "wrong_share": (wrong / attempted, "ratio", attempted),
        }
    else:
        traced_ops = [j for j, op in enumerate(ops) if op.traced]
        first_pass = traced_ops[: len(wl.argvs)]
        useful = {j: (frozenset() if ops[j].code else wl.useful) for j in traced_ops}
        profiles = tracing.op_profiles(tracer.spans, useful)
        layer = tracing.per_layer_metrics(profiles, first_pass, traced_ops)
        traced_p50 = statistics.median(ops[j].seconds for j in traced_ops)
        layer["trace.overhead_share"] = traced_p50 / statistics.median(times) - 1.0
        # Counts and ratios are means over the first traced pass through the
        # inputs; times are medians over every traced op.
        metrics = {
            name: (layer[name], unit, len(traced_ops) if unit in ("s", "us") else len(first_pass))
            for name, unit in sorted(tracing.PER_LAYER_UNITS.items())
        }
        metrics["trace.overhead_share"] = (layer["trace.overhead_share"], "ratio", len(ops))
        shown = metrics
        spans_path = WORK / f"spans-{wl.name}-{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        lines.append(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    # Count metrics recorded at the commit that defined the benchmark, shown
    # beside this run's when the seed matches (see baseline.json).
    recorded = json.loads((HERE / "baseline.json").read_text("utf-8"))["traced"].get(wl.name, {})
    if not args.trace or recorded.get("seed") != args.seed:
        recorded = {}
    for name, (value, unit, n) in shown.items():
        line = f"{name:<28} {value:>16.6g} {unit:<6} n={n}"
        if name in recorded.get("counts", {}):
            line += f"  baseline={recorded['counts'][name]:.6g}"
        lines.append(line)
    print("\n".join(lines))
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
