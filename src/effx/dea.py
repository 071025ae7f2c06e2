"""Input-oriented radial DEA: envelopment programs, efficiency decomposition,
returns-to-scale classification.

Each unit is scored by the smallest factor theta to which all of its inputs
can be contracted while a non-negative combination of peer units still
covers its outputs. Constant-returns (overall) and variable-returns (pure
technical) scores are combined into scale efficiency.

Returns to scale are classified by the range of the intensity-weight sum
over the constant-returns optimal set: constant if the range contains 1,
increasing below it, decreasing above it. The two score solves settle
almost every unit without computing that range (Banker and Thrall 1992;
Seiford and Zhu 1999, "An investigation of returns to scale in data
envelopment analysis", Omega 27). A sum at the returned CRS optimum near 1
means constant. When the CRS and VRS scores differ, every CRS optimum has
its sum on the same side of 1, so the returned one gives the class. Only a
score tie with the sum away from 1 needs one more LP, for the bound of the
range nearer 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import Dataset
from .lp import EQ, GE, LpError, LpProblem, LpStatus, solve_lp

__all__ = [
    "DeaOptions",
    "DomainError",
    "EfficiencyResult",
    "FrontierReport",
    "Rts",
    "RtsClass",
    "SolverFailure",
    "build_envelopment_lp",
    "classify_rts",
    "efficiency",
    "run_frontier",
    "scale_efficiency",
]


class Rts(Enum):
    CRS = "crs"
    VRS = "vrs"


class RtsClass(Enum):
    CONSTANT = "Constant"
    INCREASING = "Increasing"
    DECREASING = "Decreasing"


class SolverFailure(Exception):
    """The LP stage failed for one unit; carries the offending id."""

    def __init__(self, dmu_id: str, detail: str):
        super().__init__(f"unit {dmu_id!r}: {detail}")
        self.dmu_id = dmu_id


class DomainError(Exception):
    """Inconsistent upstream scores (overall above pure technical)."""


@dataclass(frozen=True)
class DeaOptions:
    returns_to_scale: Rts = Rts.CRS
    efficiency_tol: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.efficiency_tol < 1e-2:
            raise ValueError("efficiency_tol must lie in (0, 1e-2)")


# How far sum(lambda) may sit from 1 and still read as constant returns.
_RTS_TOL = 1e-6


@dataclass(frozen=True)
class EfficiencyResult:
    """Decomposed scores for one unit.

    Scores within efficiency_tol of 1 are snapped to exactly 1.0 so that
    efficient units are recognizable downstream (reports, censoring).
    lambda_sum is the intensity-weight sum at the returned CRS optimum.
    """

    dmu_id: str
    ote: float
    pte: float
    se: float
    rts: RtsClass
    lambda_crs: np.ndarray
    lambda_sum: float


@dataclass(frozen=True)
class FrontierReport:
    results: tuple[EfficiencyResult, ...]
    efficient_crs: int
    efficient_vrs: int
    mean_ote: float
    mean_pte: float


def build_envelopment_lp(ds: Dataset, j: int, opts: DeaOptions) -> LpProblem:
    """Envelopment program for unit j: variables (theta, lambda_1..n).

    Rows: theta * x_ij - sum_k lambda_k x_ik >= 0 for each input i,
    sum_k lambda_k y_ok >= y_oj for each output o, plus the convexity row
    sum lambda = 1 under variable returns. The evaluated unit stays in its
    own reference set. theta's optimum lies in (0, 1], so the canonical
    x >= 0 bound never binds away the solution.
    """
    X = ds.input_matrix
    Y = ds.output_matrix
    n, m = X.shape
    s = Y.shape[1]
    vrs = opts.returns_to_scale is Rts.VRS

    rows = m + s + (1 if vrs else 0)
    A = np.zeros((rows, 1 + n))
    b = np.zeros(rows)
    relations: list[str] = []
    for i in range(m):
        A[i, 0] = X[j, i]
        A[i, 1:] = -X[:, i]
        relations.append(GE)
    for o in range(s):
        A[m + o, 1:] = Y[:, o]
        b[m + o] = Y[j, o]
        relations.append(GE)
    if vrs:
        A[m + s, 1:] = 1.0
        b[m + s] = 1.0
        relations.append(EQ)

    c = np.zeros(1 + n)
    c[0] = 1.0
    return LpProblem(c=c, A=A, relations=tuple(relations), b=b)


def _solve_envelopment(ds: Dataset, j: int, opts: DeaOptions) -> tuple[float, np.ndarray]:
    problem = build_envelopment_lp(ds, j, opts)
    try:
        sol = solve_lp(problem)
    except LpError as err:
        raise SolverFailure(ds.dmus[j].id, str(err)) from err
    if sol.status is not LpStatus.OPTIMAL:
        raise SolverFailure(ds.dmus[j].id, f"envelopment LP ended {sol.status.value}")
    return float(sol.objective_value), sol.x[1:].copy()


def efficiency(ds: Dataset, j: int, opts: DeaOptions) -> float:
    """Optimal radial contraction factor for unit j under opts' returns
    assumption. Values within efficiency_tol of 1 mean the unit is
    efficient."""
    theta, _ = _solve_envelopment(ds, j, opts)
    return theta


def scale_efficiency(ote: float, pte: float, efficiency_tol: float = 1e-6) -> float:
    """ote / pte, clamped into (0, 1].

    Raises DomainError when ote exceeds pte beyond tolerance, which
    signals inconsistent upstream solves rather than a property of the
    data.
    """
    if ote > pte * (1.0 + efficiency_tol) + efficiency_tol:
        raise DomainError(f"overall score {ote} exceeds pure technical score {pte}")
    ratio = ote / pte
    return min(ratio, 1.0)


def _lambda_sum_bound(ds: Dataset, j: int, theta: float, sign: float) -> float:
    """Min (sign 1) or max (sign -1) of sum(lambda) over the CRS optimal set
    at theta: the CRS envelopment rows with theta fixed.

    The contracted-input rows get a one-part-per-billion cushion so the
    solved optimum stays feasible under floating point; _RTS_TOL dwarfs it.
    """
    env = build_envelopment_lp(ds, j, DeaOptions(Rts.CRS))
    b = env.b - theta * env.A[:, 0] * (1.0 + 1e-9)
    problem = LpProblem(c=np.full(ds.n, sign), A=env.A[:, 1:], relations=env.relations, b=b)
    try:
        sol = solve_lp(problem)
    except LpError as err:
        raise SolverFailure(ds.dmus[j].id, str(err)) from err
    if sol.status is not LpStatus.OPTIMAL:
        raise SolverFailure(ds.dmus[j].id, f"intensity-sum LP ended {sol.status.value}")
    return sign * float(sol.objective_value)


def _rts_class(
    ds: Dataset,
    j: int,
    theta_crs: float,
    theta_vrs: float,
    lam: np.ndarray,
    opts: DeaOptions,
) -> RtsClass:
    """Returns-to-scale class of unit j from its raw CRS and VRS solves
    (see the module docstring). Solves an intensity-sum LP only on a score
    tie with sum(lambda) more than _RTS_TOL away from 1."""
    total = float(lam.sum())
    if abs(total - 1.0) <= _RTS_TOL:
        return RtsClass.CONSTANT
    if theta_vrs - theta_crs > opts.efficiency_tol:
        return RtsClass.INCREASING if total < 1.0 else RtsClass.DECREASING
    if total > 1.0:
        low = _lambda_sum_bound(ds, j, theta_crs, 1.0)
        return RtsClass.DECREASING if low > 1.0 + _RTS_TOL else RtsClass.CONSTANT
    high = _lambda_sum_bound(ds, j, theta_crs, -1.0)
    return RtsClass.INCREASING if high < 1.0 - _RTS_TOL else RtsClass.CONSTANT


def classify_rts(ds: Dataset, j: int, opts: DeaOptions) -> RtsClass:
    """Returns-to-scale class of unit j (see _rts_class); solves the CRS
    and VRS programs, plus one intensity-sum LP only on a score tie."""
    return _evaluate_dmu(ds, j, opts).rts


def _snap(theta: float, tol: float) -> float:
    return 1.0 if abs(theta - 1.0) <= tol else theta


def _evaluate_dmu(ds: Dataset, j: int, opts: DeaOptions) -> EfficiencyResult:
    crs_opts = DeaOptions(Rts.CRS, opts.efficiency_tol)
    vrs_opts = DeaOptions(Rts.VRS, opts.efficiency_tol)
    theta_crs, lam = _solve_envelopment(ds, j, crs_opts)
    theta_vrs, _ = _solve_envelopment(ds, j, vrs_opts)
    ote = _snap(theta_crs, opts.efficiency_tol)
    pte = _snap(theta_vrs, opts.efficiency_tol)
    se = scale_efficiency(ote, pte, opts.efficiency_tol)
    return EfficiencyResult(
        dmu_id=ds.dmus[j].id,
        ote=ote,
        pte=pte,
        se=se,
        rts=_rts_class(ds, j, theta_crs, theta_vrs, lam, opts),
        lambda_crs=lam,
        lambda_sum=float(lam.sum()),
    )


def run_frontier(ds: Dataset, opts: DeaOptions) -> FrontierReport:
    """Score every unit under both returns assumptions, in dataset order.

    Emits a warning when the dataset fails the discriminatory-power rules
    of thumb.
    """
    if not ds.weak_rule:
        warnings.warn(
            f"dataset has n={ds.n} < m+s={ds.m + ds.s}; scores will discriminate poorly",
            stacklevel=2,
        )
    elif not ds.strong_rule:
        warnings.warn(
            f"dataset has n={ds.n} <= 3(m+s)={3 * (ds.m + ds.s)}; "
            "many units may score as efficient",
            stacklevel=2,
        )

    results = tuple(_evaluate_dmu(ds, j, opts) for j in range(ds.n))

    return FrontierReport(
        results=results,
        efficient_crs=sum(1 for r in results if r.ote == 1.0),
        efficient_vrs=sum(1 for r in results if r.pte == 1.0),
        mean_ote=float(np.mean([r.ote for r in results])),
        mean_pte=float(np.mean([r.pte for r in results])),
    )
