"""Dense two-phase primal simplex for small linear programs.

Problems are stated as ``min c.x`` subject to ``A x (<=|=|>=) b`` with
implicit bounds ``x >= 0``. The solver equilibrates rows internally, runs
Dantzig pricing, and falls back to Bland's rule after a run of
non-improving (degenerate) pivots so that every instance terminates.
Every optimum is certified before it is returned: the final basis is
refactored, and its x_B and reduced costs are checked on the equilibrated
rows (_certify). A solve that reaches the pivot cap, meets only tiny
pivots or ends at an optimum that fails the certificate is retried once
from scratch with Bland's rule from the first pivot, and certified again.

_lockstep is the batched counterpart that effx.dea scores blocks of units
with: many programs that share all columns but one, solved together by a
revised simplex with the same pricing and ratio test, one pivot per
program per pass. A program may come with a start basis; one that is
nonsingular and primal feasible skips phase 1. A program that finishes a
phase makes a no-op pivot in that pass while the others pivot. Its
optima pass the same certificate as solve_lp's. It keeps no Bland's
rule: a program that stalls, meets only tiny pivots or ends with a basis
that fails the certificate is reported back for solve_lp to settle, and
the others of its call are not.
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
    indices below ``n_vars`` refer to the problem's own variables. An
    OPTIMAL verdict always carries ``duals``, one per row, from the
    refactored basis that certified it."""

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

        # The equilibrated standard-form matrix; _certify factors its basis
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
    """Solve an LpProblem with a two-phase primal simplex. Every optimum
    it returns is certified (see _certify) and carries its duals.

    A Dantzig attempt that reaches the pivot cap, meets only pivots below
    pivot_tol or ends at an optimum that fails the certificate is solved
    once more from scratch with Bland's rule from the first pivot;
    ``iterations`` then counts the pivots of both attempts. Raises
    CycleLimitExceeded when the retry reaches the cap too, and
    NumericalBreakdown when it fails otherwise. INFEASIBLE and UNBOUNDED
    verdicts are returned as the attempt reached them.
    """
    tab = _Tableau(problem, opts)
    try:
        sol, stands = _solve(problem, tab, bland=False)
    except LpError:
        stands = False
    if stands:
        return sol
    sol, stands = _solve(problem, _Tableau(problem, opts), bland=True)
    if not stands:
        raise NumericalBreakdown("optimum fails its certificate")
    return replace(sol, iterations=sol.iterations + tab.iterations)


def _solve(problem: LpProblem, tab: _Tableau, bland: bool) -> tuple[LpSolution, bool]:
    """One attempt: the verdict and whether it stands, which an optimum
    does only if _certify certifies its final basis. x and the duals of
    an optimum come from that refactored basis."""
    opts = tab.opts
    d, r, ncols = tab.d, tab.r, tab.ncols

    if tab.art_start < ncols:
        phase1 = np.zeros(ncols)
        phase1[tab.art_start :] = 1.0
        tab.set_costs(phase1)
        status, _ = tab.run(bland)
        # Phase 1 is bounded below by zero in exact arithmetic, not in
        # floating point: on data spanning eight decades a column can price
        # in with no positive entry left.
        if status != "optimal":
            raise NumericalBreakdown("phase 1 terminated without an optimum")
        if -tab.T[-1, -1] > opts.feas_tol:
            return LpSolution(
                status=LpStatus.INFEASIBLE,
                x=None,
                objective_value=None,
                basis=tuple(int(i) for i in tab.basis),
                iterations=tab.iterations,
            ), True
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
        ), True

    E = tab.E
    ok, xb, y = _certify(E, E[:, :1].T, costs, tab.basis[None], tab.b_eq[None], tab.art_start, opts)
    x_full = np.zeros(ncols)
    x_full[tab.basis] = xb[0]
    x = x_full[:d]
    return LpSolution(
        status=LpStatus.OPTIMAL,
        x=x,
        objective_value=float(problem.c @ x),
        basis=basis,
        iterations=tab.iterations,
        duals=y[0] * np.where(tab.flipped, -1.0, 1.0) / tab.row_scale,
    ), bool(ok[0])


def _certify(
    A: np.ndarray,
    own: np.ndarray,
    c: np.ndarray,
    basis: np.ndarray,
    b: np.ndarray,
    priced: int,
    opts: LpOptions,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Refactor each program's final basis and certify it optimal: the
    basis check of Koch 2004 ("The final NETLIB-LP results", ORL 32) and
    Applegate, Cook, Dash and Espinoza 2007 ("Exact solutions to linear
    programming problems", ORL 35), in floating point.

    The programs ``min c.v`` s.t. ``A_l v = b_l``, ``v >= 0`` share the
    equilibrated columns of A (r x n) but the first, which is own[l] for
    program l. basis (L x r) names each program's basic columns; those
    from priced on are artificials, left basic on redundant rows. A
    program is certified when
    - every refactored level is within feas_tol of its bound (x_B >= 0,
      an artificial at 0);
    - no level outside its bound by more than rounding noise, sqrt(eps)
      of the largest level, moves a row by more than feas_tol of that
      row's activity: on a row whose entries dwarf its right-hand side,
      an absolute feas_tol alone passes bases that are off by percents;
    - every reduced cost c_j - y.a_j of the first priced columns, slack
      and surplus columns included, is >= -opt_tol (1 + |y|.|a_j|).
    A singular basis gives nan, which fails.

    Returns (ok, x_B, y) of the refactored bases.
    """
    B = _basis_matrices(A.T, own, basis)
    x = _solve_each(B, b[..., None])[..., 0]
    y = _solve_each(B.transpose(0, 2, 1), c[basis][..., None])[..., 0]

    short = np.where(basis >= priced, np.abs(x), np.maximum(-x, 0.0))
    noise = np.sqrt(np.finfo(float).eps) * np.abs(x).max(1, initial=0.0, keepdims=True)
    absB = np.abs(B)
    moved = (absB @ np.maximum(short - noise, 0.0)[..., None])[..., 0]
    activity = np.abs(b) + (absB @ np.abs(x)[..., None])[..., 0]
    ok = (short <= opts.feas_tol).all(1) & (moved <= opts.feas_tol * activity).all(1)

    P = A[:, :priced]
    rc = c[:priced] - y @ P
    rc[:, 0] = c[0] - (y * own).sum(1)
    scale = 1.0 + np.abs(y) @ np.abs(P)
    scale[:, 0] = 1.0 + np.abs(y * own).sum(1)
    ok &= (rc >= -opts.opt_tol * scale).all(1)
    return ok, x, y


def _lockstep(
    N: np.ndarray,
    theta: np.ndarray,
    rhs: np.ndarray,
    slack: np.ndarray,
    start: np.ndarray | None = None,
    opts: LpOptions = LpOptions(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve L programs ``min v_0`` s.t. ``[theta_l | N[:, 1:]] v = rhs_l``,
    ``v >= 0``, in lockstep: each pass makes one revised-simplex pivot in
    every program still running.

    N (r x d) holds the equilibrated columns the programs share; column 0
    is a placeholder for each program's own column, row l of theta (L x r).
    rhs (L x r) is non-negative. Row i has the slack column slack[i] of N,
    which is +-1 in row i and zero elsewhere, or none (-1).

    start (L x r), if given, holds a start basis per program: the columns
    of N basic in each row position, or -1 in position 0 for none. A start
    whose basis matrix is nonsingular and whose x_B is >= -feas_tol begins
    in phase 2. Every other program starts as in solve_lp: a row on its
    slack where that is feasible and on an artificial otherwise. Pricing
    is Dantzig's over the columns of N, the ratio test breaks ties by the
    smallest basic index, and artificials left basic after phase 1 are
    pivoted out. Each pivot is one rank-1 update of the program's
    [B^-1 | x_B]. A program that ends a phase makes a no-op pivot in that
    pass while the others go on. The optimal bases are refactored for x_B
    and the duals, and certified (see _certify).

    Returns (ok, basis, x_B, y), basis indexing N's columns (0 is the
    program's own). ok is False for a program that made stall_threshold
    pivots in a row without bettering its best objective or more than
    max_iterations pivots, met only pivots below pivot_tol, ended anything
    but optimal, kept an artificial, or whose basis fails the certificate;
    solve_lp settles those. x_B and y are zero where ok is False.
    """
    L, r = rhs.shape
    d = N.shape[1]
    negN = -N
    NT = np.ascontiguousarray(N.T)
    rows = np.arange(r)
    sign = np.zeros(r)
    has = slack >= 0
    sign[has] = N[rows[has], slack[has]]
    on_slack = has & ((sign > 0.0) | (rhs == 0.0))
    basis = np.where(on_slack, slack, d + rows)  # d + i: row i's artificial
    T = np.zeros((L, r, r + 1))  # [B^-1 | x_B] of each program
    T[:, rows, rows] = np.where(on_slack, sign, 1.0)
    T[:, :, r] = rhs * T[:, rows, rows]
    phase2 = np.zeros(L, dtype=bool)
    if start is not None:
        warm = np.flatnonzero(start[:, 0] >= 0)
        B = _basis_matrices(NT, theta[warm], start[warm])
        Binv = _solve_each(B, np.broadcast_to(np.eye(r), B.shape))
        xB = (Binv @ rhs[warm][..., None])[..., 0]
        good = (xB >= -opts.feas_tol).all(1)  # False for a singular start
        warm = warm[good]
        T[warm, :, :r] = Binv[good]
        T[warm, :, r] = np.maximum(xB[good], 0.0)  # no negative level in a ratio test
        basis[warm] = start[warm]
        phase2[warm] = True
    # Phase 1 costs the artificials, phase 2 the program's own column.
    cB = np.where(phase2[:, None], basis == 0, basis >= d).astype(float)
    prev = (cB * T[:, :, r]).sum(1)
    stall = np.zeros(L, dtype=int)
    iters = np.zeros(L, dtype=int)
    live = np.arange(L)  # the program of each row of the working arrays
    own = theta.copy()  # each live program's own column

    def entering(e: np.ndarray, own: np.ndarray, Binv: np.ndarray) -> np.ndarray:
        a = NT[e]
        mine = e == 0
        a[mine] = own[mine]
        return (Binv @ a[:, :, None])[:, :, 0]

    ok = np.zeros(L, dtype=bool)
    out_basis = np.zeros((L, r), dtype=int)
    while live.size:
        Binv, xB = T[:, :, :r], T[:, :, r]
        y = (cB[:, None, :] @ Binv)[:, 0]
        rc = y @ negN
        rc[:, 0] = phase2 - (y * own).sum(1)
        enter = rc.argmin(1)
        k = np.arange(live.size)
        done = rc[k, enter] >= -opts.opt_tol
        col = entering(enter, own, Binv)
        pos = col > opts.pivot_tol
        ratio = np.full(col.shape, np.inf)
        np.divide(xB, col, out=ratio, where=pos)
        best = ratio.min(1, keepdims=True)
        ties = ratio <= best + opts.pivot_tol * (1.0 + np.abs(best))
        leave = np.where(ties, basis, d + r).argmin(1)
        stuck = ~pos.any(1) & ~done  # unbounded, or only pivots below pivot_tol
        # A program that ends a phase, or is about to drop, pivots on the
        # unit column: T is left as it was.
        idle = done | stuck
        leave[idle] = 0
        col[idle] = 0.0
        col[idle, 0] = 1.0
        _pivot(T, col, leave)
        run = k[~idle]
        basis[run, leave[run]] = enter[run]
        cB[run, leave[run]] = phase2[run] & (enter[run] == 0)
        iters[run] += 1
        # Stalls count from the best objective yet, so that drift in
        # the updated levels cannot pass for progress.
        obj = (cB * xB).sum(1)
        improved = obj < prev - 1e-12 * (1.0 + np.abs(prev))
        stall = np.where(improved, 0, stall + 1)
        prev = np.where(improved, obj, prev)
        drop = stuck | (stall >= opts.stall_threshold) | (iters > opts.max_iterations)

        if done.any():
            # Record the optima; start phase 2 where phase 1 ends feasible.
            fin = done & phase2
            ok[live[fin]] = True
            out_basis[live[fin]] = basis[fin]
            drop |= fin
            for i in np.flatnonzero(done & ~phase2):
                drop[i] = prev[i] > opts.feas_tol
                for row in np.flatnonzero(basis[i] >= d):
                    t = Binv[i, row] @ N
                    t[0] = Binv[i, row] @ own[i]
                    cand = np.flatnonzero(np.abs(t) > opts.pivot_tol)
                    if drop[i] or not cand.size:
                        drop[i] = True
                        break
                    one = slice(i, i + 1)
                    _pivot(T[one], entering(cand[:1], own[one], Binv[one]), np.array([row]))
                    basis[i, row] = cand[0]
                    iters[i] += 1
                phase2[i] = True
                cB[i] = basis[i] == 0
                prev[i] = xB[i] @ cB[i]
                stall[i] = 0

        if drop.any():
            keep = ~drop
            live, own, T, basis, cB = live[keep], own[keep], T[keep], basis[keep], cB[keep]
            phase2, prev, stall, iters = phase2[keep], prev[keep], stall[keep], iters[keep]

    x = np.zeros((L, r))
    y = np.zeros((L, r))
    opt = np.flatnonzero(ok)
    if opt.size:
        cost = np.zeros(d)
        cost[0] = 1.0
        ok[opt], x[opt], y[opt] = _certify(N, theta[opt], cost, out_basis[opt], rhs[opt], d, opts)
        x[~ok] = 0.0
        y[~ok] = 0.0
    return ok, out_basis, x, y


def _basis_matrices(NT: np.ndarray, theta: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The basis matrix of each program (program, row, position): the
    columns of N that basis names, with the program's own column for 0."""
    B = NT[basis]
    mine = basis == 0
    B[mine] = theta[mine.nonzero()[0]]
    return B.transpose(0, 2, 1)


def _solve_each(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a stack of systems, where a singular member
    gives nan in its own solution instead of failing the whole stack."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        z = np.full(b.shape, np.nan)
        for l in range(len(A)):
            try:
                z[l] = np.linalg.solve(A[l], b[l])
            except np.linalg.LinAlgError:
                pass
        return z


def _pivot(T: np.ndarray, col: np.ndarray, leave: np.ndarray):
    """Pivot program l on row leave[l] with entering column col[l] (in
    basis coordinates): a rank-1 update of its [B^-1 | x_B], T[l], in
    place."""
    k = np.arange(leave.size)
    trow = T[k, leave] / col[k, leave][:, None]
    T -= col[:, :, None] * trow[:, None, :]
    T[k, leave] = trow
