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
import sys
from pathlib import Path
from typing import Sequence

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
    _csv_columns,
    bundled_fixture,
    parse_dataset,
    serialize_dataset,
    summarize,
)
from .dea import DeaOptions, DomainError, SolverFailure, run_frontier
from .lp import LpError
from .numerics import NotPositiveDefinite
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

__all__ = ["main", "run"]

_DATA_ERRORS = (DataValidationError, csv.Error, FileNotFoundError, IsADirectoryError, UnicodeDecodeError)
_SOLVER_ERRORS = (
    LpError,
    SolverFailure,
    DomainError,
    NotPositiveDefinite,
    NonFinite,
    NotIdentified,
    NoConvergence,
    SampleMismatch,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="effx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, covariates: bool = False):
        p.add_argument("--input", dest="input_path", metavar="PATH")
        p.add_argument("--fixture", dest="use_fixture", action="store_true")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--out", dest="out_path", metavar="PATH")
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
    p_pipe.add_argument("--tol-efficiency", dest="efficiency_tol", type=float, default=1e-6)

    p_fix = sub.add_parser("fixture", help="emit the bundled dataset as CSV")
    p_fix.add_argument("--out", dest="out_path", metavar="PATH")
    return parser


def _config_from_argv(argv: list[str]) -> argparse.Namespace:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if hasattr(ns, "lower") and not -math.inf < ns.lower < ns.upper < math.inf:
        parser.error(f"--lower {ns.lower} must lie below --upper {ns.upper}, both finite")
    if hasattr(ns, "efficiency_tol"):
        try:
            DeaOptions(efficiency_tol=ns.efficiency_tol)
        except ValueError as err:
            parser.error(f"--tol-efficiency {ns.efficiency_tol}: {err}")
    return ns


def _load_dataset(cfg: argparse.Namespace) -> Dataset:
    if cfg.use_fixture:
        return bundled_fixture()
    if not cfg.input_path:
        raise InvalidDataset("provide --input PATH or --fixture")
    text = Path(cfg.input_path).read_text("utf-8")
    return parse_dataset(text, FIXTURE_INPUTS, FIXTURE_OUTPUTS)


def _emit(cfg: argparse.Namespace, text: str):
    if cfg.out_path:
        Path(cfg.out_path).write_text(text, "utf-8")
    else:
        sys.stdout.write(text)


def _read_keyed_csv(path: str) -> tuple[list[str], list[str], dict[str, Sequence[str | None]]]:
    """Read a CSV keyed by id; returns (ids, value columns, raw cells by column).

    Lines starting with '#' are skipped, so the footnotes that ``effx dea``
    writes below its table do not read as rows. The rest reads as
    ``csv.DictReader`` reads it, split on ',' in one call when the file is
    plain and by ``csv.reader`` otherwise (see dataset._csv_columns),
    except that a header that names a column twice is a data error.
    """
    text = Path(path).read_text("utf-8")
    if text.startswith("#") or "\n#" in text:
        text = "".join(ln for ln in io.StringIO(text) if not ln.startswith("#"))
    header, cells, error = _csv_columns(text)
    if "id" not in header:
        raise MissingColumn("id")
    if len(set(header)) < len(header):
        repeated = next(h for i, h in enumerate(header) if h in header[:i])
        raise InvalidDataset(f"column {repeated!r} appears more than once in the header")
    if error:
        raise error
    ids = [(rid or "").strip() for rid in cells["id"]]
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        for rid in ids:
            if rid in seen:
                raise DuplicateId(rid)
            seen.add(rid)
    value_cols = [h for h in header if h not in ("id", "name")]
    return ids, value_cols, cells


_FLAG_COLUMNS = ("OWNERSHIP", "GROUP")


def _check_cell(raw: str | None, row: int, col: str) -> None:
    """Raise the data error a cell earns, if any. A cell must be a finite
    number; SUSTAINABILITY must be an integer 0..7 and OWNERSHIP/GROUP a
    0/1 flag."""
    try:
        v = float(raw)
    except (TypeError, ValueError):
        raise NonNumericCell(row, col, raw) from None
    if not math.isfinite(v):
        raise NonNumericCell(row, col, raw)
    if col == "SUSTAINABILITY" and (v != int(v) or not 0 <= v <= 7):
        raise InvalidDataset(f"row {row}: SUSTAINABILITY must be an integer in 0..7, got {raw}")
    if col in _FLAG_COLUMNS and v not in (0.0, 1.0):
        raise InvalidDataset(f"row {row}: {col} must be a 0/1 flag, got {raw}")


def _float_column(cells: Sequence[str | None], col: str) -> np.ndarray | None:
    """A whole column converted at once, or None if some cell breaks the
    rules of ``_check_cell``. ``float`` parses each cell, as there."""
    try:
        v = np.fromiter(map(float, cells), float, len(cells))
    except (TypeError, ValueError):
        return None
    ok = np.isfinite(v)
    if col == "SUSTAINABILITY":
        ok &= (v == np.floor(v)) & (v >= 0) & (v <= 7)
    elif col in _FLAG_COLUMNS:
        ok &= (v == 0) | (v == 1)
    return v if ok.all() else None


def _read_covariates(path: str) -> tuple[list[str], list[str], np.ndarray]:
    """Covariate CSV: id plus numeric columns; SUSTAINABILITY must be an
    integer 0..7 and ownership/group flags must be 0/1 when present.

    Columns are converted whole; if one fails, a scan of the cells row by
    row raises the error of the first bad cell."""
    ids, cols, cells = _read_keyed_csv(path)
    if not cols:
        raise MissingColumn("at least one covariate column")
    values = [_float_column(cells[col], col) for col in cols]
    if any(v is None for v in values):
        for i in range(len(ids)):
            for col in cols:
                _check_cell(cells[col][i], i + 1, col)
    return ids, cols, np.column_stack(values)


def _read_scores(path: str) -> tuple[list[str], dict[str, np.ndarray]]:
    """Score CSV: id plus 'ote' and/or 'pte' numeric columns.

    Columns are converted whole; if one fails, a scan of the cells column
    by column raises the error of the first bad cell."""
    ids, cols, cells = _read_keyed_csv(path)
    score_cols = [c for c in cols if c in ("ote", "pte")]
    if not score_cols:
        raise MissingColumn("ote or pte")
    out = {col: _float_column(cells[col], col) for col in score_cols}
    if any(v is None for v in out.values()):
        for col in score_cols:
            for i, raw in enumerate(cells[col], start=1):
                _check_cell(raw, i, col)
    return ids, out


def _join_covariates(
    score_ids: list[str], cov_ids: list[str], cov: np.ndarray
) -> np.ndarray:
    if score_ids == cov_ids:  # same ids in the same order: nothing to join
        return cov
    index = {rid: i for i, rid in enumerate(cov_ids)}
    try:
        take = list(map(index.__getitem__, score_ids))
    except KeyError as err:
        raise InvalidDataset(f"covariates file has no row for id {err.args[0]!r}") from None
    return cov[take]


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


def _cmd_fixture(cfg: argparse.Namespace) -> ReportTable | str:
    return serialize_dataset(bundled_fixture())


def _cmd_summary(cfg: argparse.Namespace) -> ReportTable | str:
    return summary_table(summarize(_load_dataset(cfg)))


def _cmd_dea(cfg: argparse.Namespace) -> ReportTable | str:
    ds = _load_dataset(cfg)
    opts = DeaOptions(efficiency_tol=cfg.efficiency_tol)
    report = run_frontier(ds, opts)
    return frontier_table(report, rts=cfg.rts)


def _cmd_tobit(cfg: argparse.Namespace) -> ReportTable | str:
    if not cfg.input_path:
        raise InvalidDataset("tobit needs --input with id + ote/pte columns")
    if not cfg.covariates_path:
        raise InvalidDataset("tobit needs --covariates PATH")
    score_ids, scores = _read_scores(cfg.input_path)
    if not score_ids:
        raise InvalidDataset("tobit needs at least one score row")
    cov_ids, names, cov = _read_covariates(cfg.covariates_path)
    design = _join_covariates(score_ids, cov_ids, cov)
    return regression_table(_fit_reports(scores, names, design, cfg.lower, cfg.upper))


def _cmd_pipeline(cfg: argparse.Namespace) -> ReportTable | str:
    if not cfg.covariates_path:
        raise InvalidDataset("pipeline needs --covariates PATH")
    ds = _load_dataset(cfg)
    opts = DeaOptions(efficiency_tol=cfg.efficiency_tol)
    frontier = run_frontier(ds, opts)
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
        _emit(cfg, result if isinstance(result, str) else render_table(result, cfg.fmt))
    except _DATA_ERRORS as err:
        print(f"effx: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    except _SOLVER_ERRORS as err:
        print(f"effx: {type(err).__name__}: {err}", file=sys.stderr)
        return 4
    return 0


def main():  # console entry point
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
