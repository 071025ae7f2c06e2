"""Dense two-phase primal simplex for small linear programs.

Problems are stated as ``min c.x`` subject to ``A x (<=|=|>=) b`` with
implicit bounds ``x >= 0``. The solver equilibrates rows internally, runs
Dantzig pricing, and falls back to Bland's rule after a run of
non-improving (degenerate) pivots so that every instance terminates. A
solve that still reaches the pivot cap is retried once with Bland's rule
from the first pivot.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

__all__ = [
    "CycleLimitExceeded",
    "EQ",
    "GE",
    "LE",
    "LpError",
    "LpOptions",
    "LpProblem",
    "LpSolution",
    "LpStatus",
    "NumericalBreakdown",
    "check_solution",
    "solve_lp",
]

LE = "<="
EQ = "="
GE = ">="
_RELATIONS = (LE, EQ, GE)


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LpError(Exception):
    pass


class CycleLimitExceeded(LpError):
    """Pivot cap reached even with Bland's rule engaged."""


class NumericalBreakdown(LpError):
    """Every candidate pivot in the entering column is below pivot_tol."""


@dataclass(frozen=True)
class LpOptions:
    pivot_tol: float = 1e-10
    feas_tol: float = 1e-7
    opt_tol: float = 1e-9
    max_iterations: int = 10_000
    stall_threshold: int = 50


@dataclass(frozen=True)
class LpProblem:
    """Standard-form LP: minimize c.x with row relations and x >= 0."""

    c: np.ndarray
    A: np.ndarray
    relations: tuple[str, ...]
    b: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "relations", tuple(self.relations))
        if A.shape != (b.size, c.size):
            raise ValueError(f"A has shape {A.shape}, expected ({b.size}, {c.size})")
        if len(self.relations) != b.size:
            raise ValueError("one relation required per row")
        for rel in self.relations:
            if rel not in _RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
        if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("all problem entries must be finite")

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def n_rows(self) -> int:
        return self.b.size


@dataclass(frozen=True)
class LpSolution:
    """Solver verdict. ``basis`` indexes the internal augmented columns;
    indices below ``n_vars`` refer to the problem's own variables.
    ``duals`` is None unless the optimal basis could be refactored."""

    status: LpStatus
    x: np.ndarray | None
    objective_value: float | None
    basis: tuple[int, ...]
    iterations: int
    duals: np.ndarray | None = None
    ray: np.ndarray | None = None


class _Tableau:
    """Mutable simplex state over the equilibrated standard form."""

    def __init__(self, problem: LpProblem, opts: LpOptions):
        self.opts = opts
        d = problem.n_vars
        r = problem.n_rows
        self.d = d
        self.r = r

        A = problem.A.copy()
        b = problem.b.copy()
        rels = list(problem.relations)

        # Row equilibration keeps reduced costs and ratio tests meaningful
        # when the data spans many orders of magnitude.
        scale = np.abs(A).max(axis=1)
        scale[scale == 0.0] = 1.0
        A /= scale[:, None]
        b = b / scale
        self.row_scale = scale

        # Normalize to b >= 0, remembering flipped rows for dual recovery.
        # Rows ">= 0" are flipped into "<= 0" so their slack can start
        # basic and feasible, sparing an artificial variable each.
        flip = (b < 0.0) | ((b == 0.0) & (np.asarray(rels) == GE))
        A[flip] *= -1.0
        b[flip] *= -1.0
        for i in np.nonzero(flip)[0]:
            if rels[i] == LE:
                rels[i] = GE
            elif rels[i] == GE:
                rels[i] = LE
        self.flipped = flip
        self.rels = rels

        # Column layout: original vars, one slack/surplus per inequality
        # (in row order), then one artificial per row that starts
        # infeasible at x = 0 (in row order).
        self.slack_of_row = np.full(r, -1, dtype=int)
        self.slack_sign = np.zeros(r)
        col = d
        for i, rel in enumerate(rels):
            if rel in (LE, GE):
                self.slack_of_row[i] = col
                self.slack_sign[i] = 1.0 if rel == LE else -1.0
                col += 1
        self.art_start = col
        self.art_rows: list[int] = []
        basis = np.empty(r, dtype=int)
        for i, rel in enumerate(rels):
            if rel == LE:
                basis[i] = self.slack_of_row[i]
            else:
                basis[i] = col
                self.art_rows.append(i)
                col += 1
        self.ncols = col
        self.basis = basis

        # The equilibrated standard-form matrix; _refine factors its basis
        # columns after the tableau copy has drifted through pivots.
        E = np.zeros((r, self.ncols))
        E[:, :d] = A
        for i in range(r):
            if self.slack_of_row[i] >= 0:
                E[i, self.slack_of_row[i]] = self.slack_sign[i]
        for k, i in enumerate(self.art_rows):
            E[i, self.art_start + k] = 1.0
        self.E = E
        self.b_eq = b

        T = np.zeros((r + 1, self.ncols + 1))
        T[:r, :-1] = E
        T[:r, -1] = b
        self.T = T
        self._outer = np.empty_like(T)  # rank-1 update buffer, reused by every pivot
        self.iterations = 0

    # -- pivoting ---------------------------------------------------------

    def pivot(self, row: int, col: int):
        T = self.T
        T[row] /= T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0
        T -= np.multiply.outer(factors, T[row], out=self._outer)
        T[:, col] = 0.0
        T[row, col] = 1.0
        self.basis[row] = col

    def run(self, bland: bool) -> tuple[str, int]:
        """Pivot until optimal or unbounded. Returns (status, entering col).

        Artificial columns never enter: pricing reads only the columns
        before art_start. bland=True applies Bland's rule from the first
        pivot; otherwise it engages after stall_threshold degenerate pivots.
        """
        opts = self.opts
        T = self.T
        rc = T[-1, : self.art_start]
        stall = 0
        bland_only = bland
        prev = T[-1, -1]
        while True:
            if bland:
                neg = (rc < -opts.opt_tol).nonzero()[0]
                if not neg.size:
                    return "optimal", -1
                enter = int(neg[0])
            else:
                enter = int(rc.argmin())
                if rc[enter] >= -opts.opt_tol:
                    return "optimal", -1

            col = T[: self.r, enter]
            rows = (col > opts.pivot_tol).nonzero()[0]
            if not rows.size:
                if (col > 0.0).any():
                    raise NumericalBreakdown(
                        f"all pivots in column {enter} below pivot_tol"
                    )
                return "unbounded", enter
            ratios = T[rows, -1] / col[rows]
            best = ratios.min()
            ties = rows[ratios <= best + opts.pivot_tol * (1.0 + abs(best))]
            # Smallest basic-variable index among ties (Bland-compatible).
            leave = int(ties[self.basis[ties].argmin()])

            self.pivot(leave, enter)
            self.iterations += 1
            if self.iterations > opts.max_iterations:
                raise CycleLimitExceeded(f"no optimum after {opts.max_iterations} pivots")

            cur = T[-1, -1]
            if cur > prev + 1e-12 * (1.0 + abs(prev)):
                stall = 0
                bland = bland_only
            else:
                stall += 1
                if stall >= opts.stall_threshold:
                    bland = True
            prev = cur

    def set_costs(self, costs: np.ndarray):
        """Install a phase cost vector and price out the current basis."""
        T = self.T
        T[-1, :-1] = costs
        T[-1, -1] = 0.0
        for i in range(self.r):
            cb = costs[self.basis[i]]
            if cb != 0.0:
                T[-1] -= cb * T[i]


def solve_lp(problem: LpProblem, opts: LpOptions = LpOptions()) -> LpSolution:
    """Solve an LpProblem to optimality with a two-phase primal simplex.

    A solve that reaches the pivot cap is retried once from scratch with
    Bland's rule from the first pivot; ``iterations`` then counts the
    pivots of both attempts. Raises CycleLimitExceeded when the retry
    reaches the cap too, or NumericalBreakdown on pathological instances;
    otherwise always returns a status verdict.
    """
    try:
        return _solve(problem, opts, bland=False)
    except CycleLimitExceeded:
        sol = _solve(problem, opts, bland=True)
    # The capped attempt raised on its pivot number max_iterations + 1.
    return replace(sol, iterations=sol.iterations + opts.max_iterations + 1)


def _solve(problem: LpProblem, opts: LpOptions, bland: bool) -> LpSolution:
    tab = _Tableau(problem, opts)
    d, r, ncols = tab.d, tab.r, tab.ncols

    if tab.art_start < ncols:
        phase1 = np.zeros(ncols)
        phase1[tab.art_start :] = 1.0
        tab.set_costs(phase1)
        status, _ = tab.run(bland)
        if status != "optimal":  # pragma: no cover - phase 1 is bounded below
            raise NumericalBreakdown("phase 1 terminated without an optimum")
        if -tab.T[-1, -1] > opts.feas_tol:
            return LpSolution(
                status=LpStatus.INFEASIBLE,
                x=None,
                objective_value=None,
                basis=tuple(int(i) for i in tab.basis),
                iterations=tab.iterations,
            )
        # Drive leftover artificials out of the basis where possible;
        # rows that resist are redundant and stay pinned at zero.
        for i in range(r):
            if tab.basis[i] >= tab.art_start:
                cand = np.flatnonzero(np.abs(tab.T[i, : tab.art_start]) > opts.pivot_tol)
                if cand.size:
                    tab.pivot(i, int(cand[0]))

    costs = np.zeros(ncols)
    costs[:d] = problem.c
    tab.set_costs(costs)
    status, enter = tab.run(bland)

    basis = tuple(int(i) for i in tab.basis)
    if status == "unbounded":
        ray_full = np.zeros(ncols)
        ray_full[enter] = 1.0
        for i in range(r):
            ray_full[tab.basis[i]] = -tab.T[i, enter]
        return LpSolution(
            status=LpStatus.UNBOUNDED,
            x=None,
            objective_value=None,
            basis=basis,
            iterations=tab.iterations,
            ray=ray_full[:d],
        )

    x, duals = _refine(problem, tab)
    return LpSolution(
        status=LpStatus.OPTIMAL,
        x=x,
        objective_value=float(problem.c @ x),
        basis=basis,
        iterations=tab.iterations,
        duals=duals,
    )


def _refine(problem: LpProblem, tab: _Tableau) -> tuple[np.ndarray, np.ndarray | None]:
    """Recompute the basic solution and duals from the final basis.

    A fresh factorization removes drift accumulated across pivots. When
    the basis matrix is singular, x falls back to the tableau values and
    the duals are None: no certified prices exist.
    """
    r, ncols = tab.r, tab.ncols
    costs = np.zeros(ncols)
    costs[: tab.d] = problem.c
    B = tab.E[:, tab.basis]
    x_full = np.zeros(ncols)
    sign = np.where(tab.flipped, -1.0, 1.0)
    try:
        xb = np.linalg.solve(B, tab.b_eq)
        y = np.linalg.solve(B.T, costs[tab.basis])
    except np.linalg.LinAlgError:
        x_full[tab.basis] = tab.T[:r, -1]
        return x_full[: tab.d], None
    x_full[tab.basis] = xb
    duals = y * sign / tab.row_scale
    return x_full[: tab.d], duals


def check_solution(problem: LpProblem, solution: LpSolution, opts: LpOptions = LpOptions()) -> bool:
    """Verify primal feasibility and complementary slackness of an optimum.

    Residuals are scaled by row magnitude so the check is meaningful for
    data spanning wide ranges.
    """
    if solution.status is not LpStatus.OPTIMAL:
        raise ValueError("check_solution requires an Optimal solution")
    x = solution.x
    tol = opts.feas_tol
    xmax = max(1.0, float(np.abs(x).max()) if x.size else 1.0)
    if (x < -tol * xmax).any():
        return False

    Ax = problem.A @ x
    activity = np.abs(problem.A) @ np.abs(x)
    denom = 1.0 + np.abs(problem.b) + activity
    slack = Ax - problem.b
    for i, rel in enumerate(problem.relations):
        resid = slack[i]
        if rel == LE and resid > tol * denom[i]:
            return False
        if rel == GE and -resid > tol * denom[i]:
            return False
        if rel == EQ and abs(resid) > tol * denom[i]:
            return False

    obj = float(problem.c @ x)
    if solution.objective_value is not None:
        if abs(solution.objective_value - obj) > 1e-9 * (1.0 + abs(obj)):
            return False

    y = solution.duals
    if y is None:
        return True
    # Complementary slackness: dual price times row slack vanishes, and
    # positive variables carry (near) zero reduced cost.
    for i in range(problem.n_rows):
        if abs(y[i]) * abs(slack[i]) > tol * denom[i] * (1.0 + abs(y[i])):
            return False
    rc = problem.c - problem.A.T @ y
    rc_scale = 1.0 + np.abs(problem.c) + np.abs(problem.A.T) @ np.abs(y)
    for j in range(problem.n_vars):
        if x[j] > tol * xmax and abs(rc[j]) > tol * rc_scale[j]:
            return False
        if rc[j] < -tol * rc_scale[j]:
            return False
    return True
