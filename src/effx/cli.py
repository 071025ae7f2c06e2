"""Command-line pipeline: dataset summaries, DEA frontiers, censored
regression of scores on covariates.

Exit codes: 0 success, 2 usage error, 3 data validation failure,
4 solver or fit failure. Every failure prints the originating error name
on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import (
    DataValidationError,
    Dataset,
    DuplicateId,
    FIXTURE_INPUTS,
    FIXTURE_OUTPUTS,
    InvalidDataset,
    MissingColumn,
    NonNumericCell,
    bundled_fixture,
    parse_dataset,
    serialize_dataset,
    summarize,
)
from .dea import DeaOptions, DomainError, SolverFailure, run_frontier
from .lp import LpError
from .numerics import NonFiniteEvaluation, NotPositiveDefinite
from .report import ReportTable, frontier_table, regression_table, render_table, summary_table
from .tobit import (
    CensoredSample,
    NoConvergence,
    NonFinite,
    NotIdentified,
    SampleMismatch,
    fit,
    inference_report,
)

__all__ = ["RunConfig", "main", "run"]

_DATA_ERRORS = (DataValidationError, FileNotFoundError, IsADirectoryError)
_SOLVER_ERRORS = (
    LpError,
    SolverFailure,
    DomainError,
    NotPositiveDefinite,
    NonFiniteEvaluation,
    NonFinite,
    NotIdentified,
    NoConvergence,
    SampleMismatch,
)


@dataclass
class RunConfig:
    """Parsed invocation: one command plus its inputs and knobs."""

    command: str
    input_path: str | None = None
    covariates_path: str | None = None
    use_fixture: bool = False
    rts: str = "both"
    fmt: str = "csv"
    out_path: str | None = None
    seed: int = 0
    efficiency_tol: float = 1e-6
    lower: float = 0.0
    upper: float = 1.0
    orientation: str = "input"
    threads: int = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="effx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, covariates: bool = False):
        p.add_argument("--input", dest="input_path", metavar="PATH")
        p.add_argument("--fixture", dest="use_fixture", action="store_true")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--out", dest="out_path", metavar="PATH")
        p.add_argument("--seed", type=int, default=0)
        if covariates:
            p.add_argument("--covariates", dest="covariates_path", metavar="PATH")
            p.add_argument("--lower", type=float, default=0.0)
            p.add_argument("--upper", type=float, default=1.0)

    p_dea = sub.add_parser("dea", help="score every unit against the frontier")
    add_common(p_dea)
    p_dea.add_argument("--rts", choices=("crs", "vrs", "both"), default="both")
    p_dea.add_argument("--tol-efficiency", dest="efficiency_tol", type=float, default=1e-6)

    p_sum = sub.add_parser("summary", help="per-column summary statistics")
    add_common(p_sum)

    p_tob = sub.add_parser("tobit", help="censored regression of scores on covariates")
    add_common(p_tob, covariates=True)

    p_pipe = sub.add_parser("pipeline", help="DEA then censored regression, joined by id")
    add_common(p_pipe, covariates=True)
    p_pipe.add_argument("--rts", choices=("crs", "vrs", "both"), default="both")
    p_pipe.add_argument("--tol-efficiency", dest="efficiency_tol", type=float, default=1e-6)

    p_fix = sub.add_parser("fixture", help="emit the bundled dataset as CSV")
    p_fix.add_argument("--out", dest="out_path", metavar="PATH")
    return parser


def _config_from_argv(argv: list[str]) -> RunConfig:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if hasattr(ns, "lower") and not ns.lower < ns.upper:
        parser.error(f"--lower {ns.lower} must lie below --upper {ns.upper}")
    if hasattr(ns, "efficiency_tol"):
        try:
            DeaOptions(efficiency_tol=ns.efficiency_tol)
        except ValueError as err:
            parser.error(f"--tol-efficiency {ns.efficiency_tol}: {err}")
    cfg = RunConfig(command=ns.command)
    for name in vars(cfg):
        if hasattr(ns, name):
            setattr(cfg, name, getattr(ns, name))
    cfg.threads = max(1, int(os.environ.get("EFFX_THREADS", "1") or "1"))
    return cfg


def _load_dataset(cfg: RunConfig) -> Dataset:
    if cfg.use_fixture:
        return bundled_fixture()
    if not cfg.input_path:
        raise InvalidDataset("provide --input PATH or --fixture")
    text = Path(cfg.input_path).read_text("utf-8")
    return parse_dataset(text, FIXTURE_INPUTS, FIXTURE_OUTPUTS)


def _emit(cfg: RunConfig, text: str):
    if cfg.out_path:
        Path(cfg.out_path).write_text(text, "utf-8")
    else:
        sys.stdout.write(text)


def _read_keyed_csv(path: str) -> tuple[list[str], list[str], list[dict[str, str]]]:
    """Read a CSV keyed by id; returns (ids, value columns, raw rows)."""
    text = Path(path).read_text("utf-8")
    reader = csv.DictReader(io.StringIO(text))
    header = reader.fieldnames or []
    if "id" not in header:
        raise MissingColumn("id")
    rows = list(reader)
    ids = []
    seen: set[str] = set()
    for row in rows:
        rid = (row["id"] or "").strip()
        if rid in seen:
            raise DuplicateId(rid)
        seen.add(rid)
        ids.append(rid)
    value_cols = [h for h in header if h not in ("id", "name")]
    return ids, value_cols, rows


def _finite_cell(raw: str | None, row: int, col: str) -> float:
    """A numeric cell; nan and inf are rejected like non-numbers."""
    try:
        v = float(raw)
    except (TypeError, ValueError):
        raise NonNumericCell(row, col, raw) from None
    if not math.isfinite(v):
        raise NonNumericCell(row, col, raw)
    return v


_FLAG_COLUMNS = ("OWNERSHIP", "GROUP")


def _read_covariates(path: str) -> tuple[list[str], list[str], np.ndarray]:
    """Covariate CSV: id plus numeric columns; SUSTAINABILITY must be an
    integer 0..7 and ownership/group flags must be 0/1 when present."""
    ids, cols, rows = _read_keyed_csv(path)
    if not cols:
        raise MissingColumn("at least one covariate column")
    data = np.empty((len(rows), len(cols)))
    for i, row in enumerate(rows, start=1):
        for j, col in enumerate(cols):
            raw = row[col]
            v = _finite_cell(raw, i, col)
            if col == "SUSTAINABILITY" and (v != int(v) or not 0 <= v <= 7):
                raise InvalidDataset(
                    f"row {i}: SUSTAINABILITY must be an integer in 0..7, got {raw}"
                )
            if col in _FLAG_COLUMNS and v not in (0.0, 1.0):
                raise InvalidDataset(f"row {i}: {col} must be a 0/1 flag, got {raw}")
            data[i - 1, j] = v
    return ids, cols, data


def _read_scores(path: str) -> tuple[list[str], dict[str, np.ndarray]]:
    """Score CSV: id plus 'ote' and/or 'pte' numeric columns."""
    ids, cols, rows = _read_keyed_csv(path)
    score_cols = [c for c in cols if c in ("ote", "pte")]
    if not score_cols:
        raise MissingColumn("ote or pte")
    out: dict[str, np.ndarray] = {}
    for col in score_cols:
        vals = np.empty(len(rows))
        for i, row in enumerate(rows, start=1):
            vals[i - 1] = _finite_cell(row[col], i, col)
        out[col] = vals
    return ids, out


def _join_covariates(
    score_ids: list[str], cov_ids: list[str], cov: np.ndarray
) -> np.ndarray:
    index = {rid: i for i, rid in enumerate(cov_ids)}
    rows = []
    for rid in score_ids:
        if rid not in index:
            raise InvalidDataset(f"covariates file has no row for id {rid!r}")
        rows.append(cov[index[rid]])
    return np.asarray(rows)


def _fit_reports(
    scores: dict[str, np.ndarray],
    names: list[str],
    design: np.ndarray,
    lower: float,
    upper: float,
):
    reports = {}
    for label in ("ote", "pte"):
        if label not in scores:
            continue
        sample = CensoredSample(
            y=np.clip(scores[label], lower, upper),
            X=np.column_stack([np.ones(design.shape[0]), design]),
            lower=lower,
            upper=upper,
            names=("const", *names),
        )
        reports[label] = inference_report(fit(sample))
    return reports


def _cmd_fixture(cfg: RunConfig) -> ReportTable | str:
    return serialize_dataset(bundled_fixture())


def _cmd_summary(cfg: RunConfig) -> ReportTable | str:
    return summary_table(summarize(_load_dataset(cfg)))


def _cmd_dea(cfg: RunConfig) -> ReportTable | str:
    ds = _load_dataset(cfg)
    opts = DeaOptions(efficiency_tol=cfg.efficiency_tol)
    report = run_frontier(ds, opts, max_workers=cfg.threads)
    return frontier_table(report, rts=cfg.rts)


def _cmd_tobit(cfg: RunConfig) -> ReportTable | str:
    if not cfg.input_path:
        raise InvalidDataset("tobit needs --input with id + ote/pte columns")
    if not cfg.covariates_path:
        raise InvalidDataset("tobit needs --covariates PATH")
    score_ids, scores = _read_scores(cfg.input_path)
    cov_ids, names, cov = _read_covariates(cfg.covariates_path)
    design = _join_covariates(score_ids, cov_ids, cov)
    return regression_table(_fit_reports(scores, names, design, cfg.lower, cfg.upper))


def _cmd_pipeline(cfg: RunConfig) -> ReportTable | str:
    if not cfg.covariates_path:
        raise InvalidDataset("pipeline needs --covariates PATH")
    ds = _load_dataset(cfg)
    opts = DeaOptions(efficiency_tol=cfg.efficiency_tol)
    frontier = run_frontier(ds, opts, max_workers=cfg.threads)
    score_ids = [r.dmu_id for r in frontier.results]
    scores = {
        "ote": np.array([r.ote for r in frontier.results]),
        "pte": np.array([r.pte for r in frontier.results]),
    }
    cov_ids, names, cov = _read_covariates(cfg.covariates_path)
    design = _join_covariates(score_ids, cov_ids, cov)
    return regression_table(_fit_reports(scores, names, design, cfg.lower, cfg.upper))


_COMMANDS = {
    "fixture": _cmd_fixture,
    "summary": _cmd_summary,
    "dea": _cmd_dea,
    "tobit": _cmd_tobit,
    "pipeline": _cmd_pipeline,
}


def run(argv: list[str]) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    try:
        cfg = _config_from_argv(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        result = _COMMANDS[cfg.command](cfg)
    except _DATA_ERRORS as err:
        print(f"effx: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    except _SOLVER_ERRORS as err:
        print(f"effx: {type(err).__name__}: {err}", file=sys.stderr)
        return 4
    text = result if isinstance(result, str) else render_table(result, cfg.fmt)
    _emit(cfg, text)
    return 0


def main():  # console entry point
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
