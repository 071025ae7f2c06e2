"""Span tracing from outside the program.

A ``Tracer`` replaces the module attributes that one effx layer looks up
to call the next (``effx.dea.solve_lp``, ``effx.cli.run_frontier``, ...)
with wrappers that record spans in memory. Nothing in ``src/`` changes;
``installed()`` puts the original attributes back on exit, so untraced
ops run the unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict

import effx.cli
import effx.dea
import effx.lp
import effx.tobit

FAMILIES = ("crs", "vrs", "rts")
# solve_lp increments its pivot counter before testing the cap, so a call
# that raises CycleLimitExceeded has made max_iterations + 1 pivots.
CAP_PIVOTS = effx.lp.LpOptions().max_iterations + 1


def lp_family(problem) -> str:
    """vrs if the program has the convexity equality row; crs if only the
    theta column has a cost (1); otherwise the intensity-sum range LP."""
    if effx.lp.EQ in problem.relations:
        return "vrs"
    if problem.c[0] == 1.0 and not problem.c[1:].any():
        return "crs"
    return "rts"


class Tracer:
    """Spans of the traced ops: name, start, end, parent span, op id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def _record(self, name: str, fn, attrs=None):
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "op": self.op,
                "parent": self._stack[-1] if self._stack else None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                span["end"] = time.perf_counter()
                span["error"] = type(err).__name__
                if attrs:
                    span.update(attrs(args, None, err))
                raise
            finally:
                self._stack.pop()
            span["end"] = time.perf_counter()
            if attrs:
                span.update(attrs(args, result, None))
            return result

        return functools.wraps(fn)(wrapper)

    def op_span(self, op: int, fn, *args):
        """Run fn(*args) as the root span ``cli.op`` of op ``op``."""
        self.op = op
        try:
            return self._record("cli.op", fn)(*args)
        finally:
            self.op = None

    @contextlib.contextmanager
    def installed(self):
        def rows(args, result, err):
            return {"rows": result.n if result is not None else 0}

        def lp(args, result, err):
            if result is not None:
                return {"family": lp_family(args[0]), "pivots": result.iterations, "status": result.status.value}
            capped = isinstance(err, effx.lp.CycleLimitExceeded)
            return {"family": lp_family(args[0]), "pivots": CAP_PIVOTS if capped else 0, "status": "error"}

        def fit(args, result, err):
            return {"iterations": result.iterations if result is not None else 0}

        def text(args, result, err):
            return {"bytes": len(result.encode("utf-8")) if result is not None else 0}

        patches = [
            (effx.cli, "parse_dataset", "dataset.parse", rows),
            (effx.cli, "bundled_fixture", "dataset.parse", rows),
            (effx.cli, "run_frontier", "dea.frontier", None),
            (effx.dea, "build_envelopment_lp", "dea.build_lp", None),
            (effx.dea, "solve_lp", "lp.solve", lp),
            (effx.cli, "fit", "tobit.fit", fit),
            (effx.tobit, "fit", "tobit.fit", fit),
            (effx.cli, "inference_report", "tobit.inference", None),
            (effx.tobit, "log_likelihood", "tobit.loglik", None),
            (effx.tobit, "score_and_hessian", "tobit.score_hessian", None),
            (effx.tobit, "solve_spd", "numerics.solve_spd", None),
            (effx.cli, "frontier_table", "report.table", None),
            (effx.cli, "regression_table", "report.table", None),
            (effx.cli, "render_table", "report.render", text),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in patches]
        for mod, attr, name, attrs in patches:
            setattr(mod, attr, self._record(name, getattr(mod, attr), attrs))
        try:
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 where the base is empty (e.g. no LPs solved)."""
    return num / den if den else 0.0


def op_profiles(spans: list[dict], useful: dict[int, frozenset]) -> dict[int, dict]:
    """Per-op sums of layer times and counts, keyed by op id.

    ``useful`` maps each op to the LP families whose results reached its
    output (empty for an op that failed).
    """
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += s["end"] - s["start"]
    prof: dict[int, dict] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        p = prof[s["op"]]
        dur = s["end"] - s["start"]
        self_s = dur - children[s["id"]]
        name = s["name"]
        p[name + ".s"] += dur
        p[name + ".self_s"] += self_s
        p[name + ".calls"] += 1
        if name == "dataset.parse":
            p["dataset.rows"] += s["rows"]
        elif name == "lp.solve":
            fam = s["family"]
            for key in ("", "." + fam):
                p["lp.calls" + key] += 1
                p["lp.pivots" + key] += s["pivots"]
                p["lp.solve_s" + key] += dur
            p["lp.optimal"] += s["status"] == "optimal"
            p["lp.errors"] += "error" in s
            p["lp.cap_hits"] += s.get("error") == "CycleLimitExceeded"
            p["lp.useful"] += fam in useful[s["op"]]
        elif name == "tobit.fit":
            p["tobit.newton_iters"] += s["iterations"]
        elif name == "report.render":
            p["report.bytes"] += s["bytes"]
    return prof


# Count metrics: the mean per op over one pass through the run's inputs,
# so they repeat exactly for a given seed.
_COUNTS = {
    "dataset.rows": "dataset.rows",
    "dea.build_lp_calls": "dea.build_lp.calls",
    "tobit.fit_calls": "tobit.fit.calls",
    "tobit.newton_iters": "tobit.newton_iters",
    "tobit.loglik_evals": "tobit.loglik.calls",
    "tobit.score_hessian_calls": "tobit.score_hessian.calls",
    "numerics.solve_spd_calls": "numerics.solve_spd.calls",
    "report.bytes": "report.bytes",
    "lp.cap_hits": "lp.cap_hits",
    "lp.errors": "lp.errors",
}
# Time metrics: the median over all traced ops of the per-op sum.
_TIMES = {
    "cli.op_s": "cli.op.s",
    "cli.self_s": "cli.op.self_s",
    "dataset.parse_s": "dataset.parse.s",
    "dea.frontier_s": "dea.frontier.s",
    "dea.self_s": "dea.frontier.self_s",
    "dea.build_lp_s": "dea.build_lp.s",
    "tobit.fit_s": "tobit.fit.s",
    "tobit.inference_s": "tobit.inference.self_s",
    "numerics.solve_spd_s": "numerics.solve_spd.s",
}

# Which end-to-end metric each layer metric should move, and where:
#   cli.self_s (argparse, CSV ingest, id join, output write): op_s_p50 on
#     regression, where it is ~97% of the op; ~1% elsewhere.
#   dataset.*: under 1% on every workload; no movement expected.
#   dea.*, lp.pivots, lp.us_per_pivot: op_s_p50 and items_per_s on frontier
#     (LP ~95% of the op) and airports (~72%).
#   lp.calls.rts, lp.cap_hits: failed_share and items_per_s on spread.
#   tobit.*, numerics.*: op_s_p50 on airports (~17%) and regression (~3%);
#     nothing on frontier or spread.
#   report.*: airports, under 1%.
# Nothing in lp moves regression, which solves no LPs.
PER_LAYER_UNITS = {
    **{name: "s" for name in _TIMES},
    "report.render_s": "s",
    **{name: "count" for name in _COUNTS},
    "report.bytes": "bytes",
    "dea.lp_useful_share": "ratio",
    "lp.ok_share": "ratio",
    "trace.overhead_share": "ratio",
}
for _key in ("", *("." + f for f in FAMILIES)):
    PER_LAYER_UNITS.update(
        {
            "lp.calls" + _key: "count",
            "lp.pivots" + _key: "count",
            "lp.solve_s" + _key: "s",
            "lp.pivots_per_call" + _key: "count",
            "lp.us_per_pivot" + _key: "us",
        }
    )


def per_layer_metrics(profiles: dict[int, dict], first_pass: list[int], traced_ops: list[int]) -> dict[str, float]:
    """Per-layer metrics from per-op profiles (see ``_COUNTS`` and ``_TIMES``)."""
    def pass_mean(key: str) -> float:
        return sum(profiles[o][key] for o in first_pass) / len(first_pass)

    def median(fn) -> float:
        return statistics.median(fn(profiles[o]) for o in traced_ops)

    out = {name: pass_mean(key) for name, key in _COUNTS.items()}
    out.update({name: median(lambda p, k=key: p[k]) for name, key in _TIMES.items()})
    out["report.render_s"] = median(lambda p: p["report.render.s"] + p["report.table.s"])
    for key in ("", *("." + f for f in FAMILIES)):
        calls, pivots = pass_mean("lp.calls" + key), pass_mean("lp.pivots" + key)
        out["lp.calls" + key] = calls
        out["lp.pivots" + key] = pivots
        out["lp.pivots_per_call" + key] = _ratio(pivots, calls)
        out["lp.solve_s" + key] = median(lambda p, k=key: p["lp.solve_s" + k])
        out["lp.us_per_pivot" + key] = median(
            lambda p, k=key: 1e6 * _ratio(p["lp.solve_s" + k], p["lp.pivots" + k])
        )
    out["lp.ok_share"] = _ratio(pass_mean("lp.optimal"), out["lp.calls"])
    out["dea.lp_useful_share"] = _ratio(pass_mean("lp.useful"), out["lp.calls"])
    return out
