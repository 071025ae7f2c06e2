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

run_frontier solves each score program over a working set of columns
rather than all n units (restricted basis entry: Ali 1993, "Streamlined
computation for DEA", EJOR 64; Dula 2011, BuildHull). Each returns
assumption keeps a frame of units known to be peers. The CRS frame starts
with the unit of best y_o / x_i ratio for every input-output pair; the VRS
frame adds the unit of least x_i for every input and of most y_o for every
output. Both kinds are efficient under their assumption, so they are
likely peers. Unit j is solved over frame + {j}, which is feasible (theta
= 1 on j itself), and every unit's column is priced with the optimal
duals y: lambda_k has reduced cost x_k.y_in - y_k.y_out (- y_conv under
VRS). If none is negative beyond tolerance, y is dual feasible for the
full program, so by LP duality the restricted optimum is the full one;
otherwise the units that price out join the LP and it is solved again.
The peers of the final solve join the frame.

A unit k scored earlier need not be priced. Its peers l joined the frame,
so they are columns of every later LP, and theta_k x_k >= sum lambda_l x_l
with theta_k <= 1 and y_k <= sum lambda_l y_l. As y_in, y_out >= 0 above,
that gives rc_k >= sum lambda_l rc_l (under VRS sum lambda_l = 1 carries
the convexity dual along), so k cannot price out while its peers do not.
With tolerances the bound is rc_k >= -sum lambda_l tol_l instead of
rc_k >= -tol_k, looser when sum lambda > 1 under CRS. Each tol is
opt_tol = 1e-9 relative to the column's weight in the duals, and a dual
shortfall d on column k can lower theta by at most d times lambda_k of
the full optimum, so the scores still agree with full-column solves far
inside efficiency_tol (tests/test_dea.py holds them to 1e-9).

The units are scored in blocks of _BLOCK. Only the theta column and the
right-hand side differ between the programs of one returns assumption,
so their rows are equilibrated once per dataset and a block's programs
share every lambda column: the frame plus the block's own units.
lp._lockstep solves them together, one revised-simplex pivot per program
per pass. The units of the block that price out run again over those
columns plus the ones that priced them out, until none does; the peers
join the frame after each pass over the block. No program starts cold
when it can help it. A first solve starts at its best single frame peer
(see _Frame._one_peer), a feasible vertex that skips phase 1. A re-solve
starts at its own certified optimum, which the added columns leave
primal feasible (restricted basis entry again). A program the lockstep
cannot finish (a stall, a pivot below tolerance, a basis that fails its
certificate) is scored on its own by solve_lp over frame + {j} as above.
Both paths certify every optimum they return with the same check
(lp._certify), so the duals that price the other units always exist; a
unit that neither path can certify raises SolverFailure. Results keep
the CRS peers sparsely (the nonzero intensity weights and their units).
efficiency() and the intensity-sum LP always use solve_lp over all
columns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .dataset import Dataset
from .lp import EQ, GE, LpError, LpOptions, LpProblem, LpSolution, LpStatus, _lockstep, solve_lp

__all__ = [
    "DeaOptions",
    "DomainError",
    "EfficiencyResult",
    "FrontierReport",
    "Rts",
    "RtsClass",
    "SolverFailure",
    "build_envelopment_lp",
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

# Units that run_frontier scores together in one lockstep simplex.
_BLOCK = 128


@dataclass(frozen=True)
class EfficiencyResult:
    """Decomposed scores for one unit.

    Scores within efficiency_tol of 1 are snapped to exactly 1.0 so that
    efficient units are recognizable downstream (reports, censoring).
    peers and peer_weights are the units with a nonzero intensity weight
    at the returned CRS optimum (ascending) and those weights; lambda_sum
    is the sum of all its weights.
    """

    dmu_id: str
    ote: float
    pte: float
    se: float
    rts: RtsClass
    peers: np.ndarray
    peer_weights: np.ndarray
    lambda_sum: float


@dataclass(frozen=True)
class FrontierReport:
    results: tuple[EfficiencyResult, ...]
    efficient_crs: int
    efficient_vrs: int
    mean_ote: float
    mean_pte: float


def build_envelopment_lp(
    ds: Dataset, j: int, opts: DeaOptions, cols: np.ndarray | None = None
) -> LpProblem:
    """Envelopment program for unit j: variables (theta, lambda_k for k in
    cols), with cols the ascending unit indices that may serve as peers
    (None means all n units; a subset must contain j).

    Rows: theta * x_ij - sum_k lambda_k x_ik >= 0 for each input i,
    sum_k lambda_k y_ok >= y_oj for each output o, plus the convexity row
    sum lambda = 1 under variable returns. The evaluated unit stays in its
    own reference set. theta's optimum lies in (0, 1], so the canonical
    x >= 0 bound never binds away the solution.
    """
    X = ds.input_matrix
    Y = ds.output_matrix
    x_j, y_j = X[j], Y[j]
    if cols is not None:
        X, Y = X[cols], Y[cols]
    k, m = X.shape
    s = Y.shape[1]
    vrs = opts.returns_to_scale is Rts.VRS

    rows = m + s + (1 if vrs else 0)
    A = np.zeros((rows, 1 + k))
    b = np.zeros(rows)
    relations: list[str] = []
    for i in range(m):
        A[i, 0] = x_j[i]
        A[i, 1:] = -X[:, i]
        relations.append(GE)
    for o in range(s):
        A[m + o, 1:] = Y[:, o]
        b[m + o] = y_j[o]
        relations.append(GE)
    if vrs:
        A[m + s, 1:] = 1.0
        b[m + s] = 1.0
        relations.append(EQ)

    c = np.zeros(1 + k)
    c[0] = 1.0
    return LpProblem(c=c, A=A, relations=tuple(relations), b=b)


def _solve(ds: Dataset, j: int, problem: LpProblem, what: str) -> LpSolution:
    try:
        sol = solve_lp(problem)
    except LpError as err:
        raise SolverFailure(ds.dmus[j].id, str(err)) from err
    if sol.status is not LpStatus.OPTIMAL:
        raise SolverFailure(ds.dmus[j].id, f"{what} LP ended {sol.status.value}")
    return sol


class _Solve(NamedTuple):
    """One score program's optimum: theta, and lambda's weights on units
    (ascending); every unit of nonzero weight is listed, zeros may be."""

    theta: float
    units: np.ndarray
    lam: np.ndarray


def _solve_envelopment(ds: Dataset, j: int, opts: DeaOptions) -> _Solve:
    sol = _solve(ds, j, build_envelopment_lp(ds, j, opts), "envelopment")
    return _Solve(float(sol.objective_value), np.arange(ds.n), sol.x[1:])


class _Frame:
    """Working set of known peers under one returns assumption.

    solve_block scores a block of units at once over the frame plus the
    block; solve scores one unit over the frame plus itself, pricing the
    other units with the solve's duals and repeating with the ones that
    price out until none does. The peers of every solve join the frame.
    See the module docstring for the seeds and the exactness argument.
    """

    def __init__(self, ds: Dataset, opts: DeaOptions):
        X, Y = ds.input_matrix, ds.output_matrix
        n = ds.n
        vrs = opts.returns_to_scale is Rts.VRS
        # Best y_o / x_i ratio per input-output pair: CRS-efficient.
        seeds = [(Y[:, None, :] / X[:, :, None]).reshape(n, -1).argmax(axis=0)]
        # Least of some input or most of some output: VRS-efficient.
        if vrs:
            seeds += [X.argmin(axis=0), Y.argmax(axis=0)]
        self.mask = np.zeros(n, dtype=bool)
        self.mask[np.concatenate(seeds)] = True
        # Row k is minus unit k's LP column (constraint rows in order), so
        # the reduced cost of lambda_k is price @ duals.
        self.price = np.hstack([X, -Y] + ([np.full((n, 1), -1.0)] if vrs else []))
        self.price_abs = np.abs(self.price)
        # Every program's rows, equilibrated once by their largest entry
        # over all units: the inputs negated into "<= 0" (slack +1), the
        # outputs ">= y_o" (surplus -1), then convexity "= 1". Row k of
        # lp_cols is unit k's column in them; row_dual maps their duals
        # back to the rows of build_envelopment_lp.
        scale = self.price_abs.max(axis=0)
        scale[scale == 0.0] = 1.0
        self.lp_cols = self.price_abs / scale
        self.is_input = np.arange(scale.size) < ds.m
        self.row_dual = np.where(self.is_input, -1.0, 1.0) / scale
        k = ds.m + ds.s
        self.slacks = np.zeros((scale.size, k))
        self.slacks[np.arange(k), np.arange(k)] = np.where(self.is_input[:k], 1.0, -1.0)
        self.ds = ds
        self.opts = opts

    def solve_block(self, block: range) -> list[_Solve | None]:
        """Score the units of block in lockstep (see lp._lockstep) over the
        frame plus the block, then again over those columns plus the units
        that priced out, for the units that had any, until none has. None
        marks a unit that _lockstep left to solve_lp: solve settles it.

        A first solve starts from its best one-peer vertex where a frame
        peer covers the unit (see _one_peer), a re-solve from its own
        optimum, which the added columns leave feasible. Only the units of
        later blocks are priced (see the module docstring)."""
        rows, k = self.slacks.shape
        out: list[_Solve | None] = [None] * len(block)
        units = np.arange(block.start, block.stop)
        cols = self.mask.copy()
        cols[units] = True
        idx = np.flatnonzero(cols)
        start = self._one_peer(units, idx)
        price, price_abs = self.price[block.stop :], self.price_abs[block.stop :]
        while units.size:
            N = np.hstack([np.zeros((rows, 1)), self.lp_cols[idx].T, self.slacks])
            slack = np.where(np.arange(rows) < k, 1 + idx.size + np.arange(rows), -1)
            own = self.lp_cols[units]
            theta = np.where(self.is_input, -own, 0.0)
            rhs = np.where(self.is_input, 0.0, own)

            ok, basis, x, y = _lockstep(N, theta, rhs, slack, start)
            duals = y * self.row_dual
            tol = LpOptions.opt_tol * (1.0 + price_abs @ np.abs(duals).T)
            enter = (price @ duals.T < -tol) & ~cols[block.stop :, None]
            priced = ok & enter.any(axis=0)
            done = ok & ~priced
            # Each optimum's lambda columns in ascending unit order, padded
            # with unit n where a position holds no lambda.
            on = (basis >= 1) & (basis <= idx.size)
            peer = np.where(on, idx[np.clip(basis - 1, 0, idx.size - 1)], self.ds.n)
            order = peer.argsort(axis=1)
            peer = np.take_along_axis(peer, order, axis=1)
            lam = np.take_along_axis(np.where(on, x, 0.0), order, axis=1)
            value = np.where(basis == 0, x, 0.0).sum(axis=1)
            count = on.sum(axis=1)
            for b in np.flatnonzero(done):
                c = count[b]
                out[units[b] - block.start] = _Solve(float(value[b]), peer[b, :c], lam[b, :c])
            self.mask[peer[done[:, None] & (lam > 0.0)]] = True
            cols |= self.mask
            cols[block.stop :] |= enter[:, priced].any(axis=1)
            units = units[priced]
            # The priced-out optima, renumbered into the grown column set.
            grown = np.flatnonzero(cols)
            start = basis[priced]
            lam_at, slack_at = (start >= 1) & (start <= idx.size), start > idx.size
            start[lam_at] = 1 + np.searchsorted(grown, idx[start[lam_at] - 1])
            start[slack_at] += grown.size - idx.size
            idx = grown
        return out

    def _one_peer(self, units: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Start basis of each unit's program over columns idx: the best
        vertex with a single frame peer (the free disposal hull point;
        Deprins, Simar and Tulkens 1984). Peer k covers unit j's outputs at
        lambda_k = max_o y_oj / y_ok under CRS and at lambda_k = 1 if its
        outputs dominate under VRS, and needs theta_k = lambda_k max_i
        x_ik / x_ij. The basis is {theta, lambda_k} plus every slack but
        those of the binding input and, under CRS, the binding output. A
        frame unit is no start for itself: theta = 1 with every slack at
        zero is a fully degenerate vertex, and programs started there
        stall. A unit that no other frame peer covers gets no start (-1)."""
        X, Y = self.ds.input_matrix, self.ds.output_matrix
        frame = np.flatnonzero(self.mask[idx])
        Xj, Yj, Xk, Yk = X[units], Y[units], X[idx[frame]], Y[idx[frame]]
        vrs = self.opts.returns_to_scale is Rts.VRS
        # (unit, peer) arrays built a column at a time: a single
        # (unit, peer, column) array costs far more than the m + s passes.
        xinv = 1.0 / Xj
        ratio = xinv[:, :1] * Xk[:, 0]
        for i in range(1, X.shape[1]):
            np.maximum(ratio, xinv[:, i : i + 1] * Xk[:, i], out=ratio)
        if vrs:
            covers = Yk[:, 0] >= Yj[:, :1]
            for o in range(1, Y.shape[1]):
                covers &= Yk[:, o] >= Yj[:, o : o + 1]
            theta = np.where(covers, ratio, np.inf)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                yinv = 1.0 / Yk
                lam = Yj[:, :1] * yinv[:, 0]
                for o in range(1, Y.shape[1]):
                    np.fmax(lam, Yj[:, o : o + 1] * yinv[:, o], out=lam)  # 0/0 binds nothing
                theta = lam * ratio
            theta[np.isnan(theta)] = np.inf
        theta[idx[frame] == units[:, None]] = np.inf
        p = theta.argmin(axis=1)
        b = np.arange(units.size)
        rows, k = self.slacks.shape
        start = np.empty((units.size, rows), dtype=int)
        start[:, :k] = 1 + idx.size + np.arange(k)
        start[b, (Xk[p] / Xj).argmax(axis=1)] = 0
        if vrs:
            start[:, k] = 1 + frame[p]
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                binding = np.where(Yk[p] > 0.0, Yj / Yk[p], -np.inf).argmax(axis=1)
            start[b, self.ds.m + binding] = 1 + frame[p]
        start[np.isinf(theta[b, p]), 0] = -1
        return start

    def solve(self, j: int) -> _Solve:
        ds, opts = self.ds, self.opts
        cols = self.mask.copy()
        cols[j] = True
        while True:
            idx = np.flatnonzero(cols)
            sol = _solve(ds, j, build_envelopment_lp(ds, j, opts, idx), "envelopment")
            y = sol.duals
            tol = LpOptions.opt_tol * (1.0 + self.price_abs @ np.abs(y))
            enter = (self.price @ y < -tol) & ~cols
            if not enter.any():
                break
            cols |= enter
        lam = sol.x[1:]
        self.mask[idx[lam > 0.0]] = True
        return _Solve(float(sol.objective_value), idx, lam)


def efficiency(ds: Dataset, j: int, opts: DeaOptions) -> float:
    """Optimal radial contraction factor for unit j under opts' returns
    assumption. Values within efficiency_tol of 1 mean the unit is
    efficient."""
    return _solve_envelopment(ds, j, opts).theta


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
    sol = _solve(ds, j, problem, "intensity-sum")
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


def _snap(theta: float, tol: float) -> float:
    return 1.0 if abs(theta - 1.0) <= tol else theta


def _evaluate_dmu(ds: Dataset, j: int, opts: DeaOptions) -> EfficiencyResult:
    """Scores, class and CRS peers of unit j over all columns."""
    crs = _solve_envelopment(ds, j, DeaOptions(Rts.CRS))
    return _result(ds, j, crs, _solve_envelopment(ds, j, DeaOptions(Rts.VRS)).theta, opts)


def _result(ds: Dataset, j: int, crs: _Solve, theta_vrs: float, opts: DeaOptions) -> EfficiencyResult:
    ote = _snap(crs.theta, opts.efficiency_tol)
    pte = _snap(theta_vrs, opts.efficiency_tol)
    se = scale_efficiency(ote, pte, opts.efficiency_tol)
    nonzero = crs.lam != 0.0
    return EfficiencyResult(
        dmu_id=ds.dmus[j].id,
        ote=ote,
        pte=pte,
        se=se,
        rts=_rts_class(ds, j, crs.theta, theta_vrs, crs.lam, opts),
        peers=crs.units[nonzero],
        peer_weights=crs.lam[nonzero],
        lambda_sum=float(crs.lam.sum()),
    )


def run_frontier(ds: Dataset, opts: DeaOptions) -> FrontierReport:
    """Score every unit under both returns assumptions, in dataset order,
    block by block over a working set of known peers (see _Frame).

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

    crs_frame, vrs_frame = _Frame(ds, DeaOptions(Rts.CRS)), _Frame(ds, DeaOptions(Rts.VRS))
    results = []
    for start in range(0, ds.n, _BLOCK):
        block = range(start, min(start + _BLOCK, ds.n))
        crs, vrs = crs_frame.solve_block(block), vrs_frame.solve_block(block)
        for j, c, v in zip(block, crs, vrs):
            c = c or crs_frame.solve(j)
            theta_vrs = (v or vrs_frame.solve(j)).theta
            results.append(_result(ds, j, c, theta_vrs, opts))

    return FrontierReport(
        results=tuple(results),
        efficient_crs=sum(1 for r in results if r.ote == 1.0),
        efficient_vrs=sum(1 for r in results if r.pte == 1.0),
        mean_ote=float(np.mean([r.ote for r in results])),
        mean_pte=float(np.mean([r.pte for r in results])),
    )
