"""Independent reference implementations used to freeze expected values.

None of these share code paths with the package: linear programs are
solved by brute-force vertex enumeration, by an exact rational simplex or
by HiGHS, and a reported optimum is checked on the problem's own rows by
``check_solution``; tail probabilities by quadrature, likelihoods by
direct per-row evaluation in extended precision, the Tobit likelihood,
score and Hessian row by row, gradients by central differences, and the
CLI's covariate and score CSVs and the dataset CSV by
``csv.DictReader`` and one check per cell.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

from effx.dataset import (
    Dataset,
    DmuRecord,
    DuplicateId,
    InvalidDataset,
    MissingColumn,
    NonNumericCell,
    NonPositiveInput,
)
from effx.lp import EQ, GE, LE, LpOptions, LpProblem, LpSolution, LpStatus


def enumerate_vertices(problem: LpProblem, feas_tol: float = 1e-8) -> np.ndarray:
    """All vertices of {x >= 0 : Ax rel b} by active-set enumeration.

    Candidate active sets take every equality row plus d - n_eq further
    constraints drawn from the inequality rows and the sign bounds; the
    square systems are solved in one batched call.
    """
    A, b, rels = problem.A, problem.b, problem.relations
    r, d = A.shape
    M = np.vstack([A, np.eye(d)])
    rhs = np.concatenate([b, np.zeros(d)])
    eq_rows = [i for i, rel in enumerate(rels) if rel == EQ]
    if len(eq_rows) > d:
        return np.empty((0, d))
    others = [i for i in range(r + d) if i not in eq_rows]
    combos = list(itertools.combinations(others, d - len(eq_rows)))
    if not combos:
        combos = [()]
    active = np.array([eq_rows + list(c) for c in combos], dtype=int)

    mats = M[active]  # (n_combo, d, d)
    rhss = rhs[active]
    dets = np.linalg.det(mats)
    row_norms = np.linalg.norm(M, axis=1)
    scale = np.prod(row_norms[active], axis=1)
    ok = np.abs(dets) > 1e-12 * np.maximum(scale, 1e-30)
    if not ok.any():
        return np.empty((0, d))
    xs = np.linalg.solve(mats[ok], rhss[ok][..., None])[..., 0]

    keep = (xs >= -feas_tol).all(axis=1)
    xs = xs[keep]
    if xs.size == 0:
        return np.empty((0, d))
    slack = xs @ A.T - b
    denom = 1.0 + np.abs(b) + np.abs(xs) @ np.abs(A).T
    good = np.ones(len(xs), dtype=bool)
    for i, rel in enumerate(rels):
        if rel == LE:
            good &= slack[:, i] <= feas_tol * denom[:, i]
        elif rel == GE:
            good &= slack[:, i] >= -feas_tol * denom[:, i]
        else:
            good &= np.abs(slack[:, i]) <= feas_tol * denom[:, i]
    return xs[good]


def vertex_minimum(problem: LpProblem) -> tuple[str, float | None, np.ndarray | None]:
    """Optimal value over enumerated vertices; 'infeasible' when none pass.

    Only valid for problems known to be bounded (the generators below
    guarantee that by construction).
    """
    verts = enumerate_vertices(problem)
    if len(verts) == 0:
        return "infeasible", None, None
    objs = verts @ problem.c
    i = int(np.argmin(objs))
    return "optimal", float(objs[i]), verts[i]


def exact_minimum(problem: LpProblem) -> Fraction | None:
    """Minimum of the LP in exact rational arithmetic on its float entries
    (every float is a dyadic rational): a two-phase dense simplex under
    Bland's rule, which cannot cycle. None when the LP is infeasible; only
    valid for problems known to be bounded."""
    A = [[Fraction(v) for v in row] for row in problem.A.tolist()]
    b = [Fraction(v) for v in problem.b.tolist()]
    rels = list(problem.relations)
    r, d = len(b), problem.n_vars
    for i in range(r):
        if b[i] < 0:
            A[i], b[i] = [-v for v in A[i]], -b[i]
            rels[i] = {LE: GE, GE: LE, EQ: EQ}[rels[i]]
    # Columns: x, a slack (<=) or surplus (>=) per inequality, then an
    # artificial per row that has no slack to start on.
    n_slack = sum(rel != EQ for rel in rels)
    art = d + n_slack
    ncols = art + sum(rel != LE for rel in rels)
    T = [row + [Fraction(0)] * (ncols - d) + [bi] for row, bi in zip(A, b)]
    basis = []
    s, a = d, art
    for i, rel in enumerate(rels):
        if rel != EQ:
            T[i][s] = Fraction(1 if rel == LE else -1)
            s += 1
        if rel == LE:
            basis.append(s - 1)
        else:
            T[i][a] = Fraction(1)
            basis.append(a)
            a += 1

    def pivot(row, col):
        T[row] = [v / T[row][col] for v in T[row]]
        for i in range(r):
            f = T[i][col]
            if i != row and f:
                T[i] = [u - f * w for u, w in zip(T[i], T[row])]
        basis[row] = col

    def run(cost, cols):
        """Bland's rule over the first cols columns; False if unbounded."""
        while True:
            y = [cost[k] for k in basis]
            enter = next(
                (j for j in range(cols) if j not in basis and cost[j] < sum(yi * T[i][j] for i, yi in enumerate(y) if yi)),
                None,
            )
            if enter is None:
                return True
            rows = [i for i in range(r) if T[i][enter] > 0]
            if not rows:
                return False
            best = min(T[i][-1] / T[i][enter] for i in rows)
            pivot(min((i for i in rows if T[i][-1] / T[i][enter] == best), key=basis.__getitem__), enter)

    if ncols > art:
        run([Fraction(0)] * art + [Fraction(1)] * (ncols - art), ncols)
        if any(T[i][-1] for i in range(r) if basis[i] >= art):
            return None
        for i in range(r):
            cand = [j for j in range(art) if T[i][j]] if basis[i] >= art else []
            if cand:
                pivot(i, cand[0])
    cost = [Fraction(v) for v in problem.c.tolist()] + [Fraction(0)] * (ncols - d)
    if not run(cost, art):
        raise ValueError("exact_minimum requires a bounded problem")
    return sum(cost[k] * T[i][-1] for i, k in enumerate(basis))


def check_solution(problem: LpProblem, solution: LpSolution, opts: LpOptions = LpOptions()) -> bool:
    """Verify primal feasibility, the sign of each row dual and
    complementary slackness of an optimum.

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
    # A row's dual is the reduced cost of its surplus (>=) or slack (<=)
    # column, so it must be >= 0 or <= 0; checked on the equilibrated row.
    y_row = y * np.abs(problem.A).max(axis=1, initial=0.0)
    for rel, v in zip(problem.relations, y_row):
        if (rel == GE and v < -opts.opt_tol) or (rel == LE and v > opts.opt_tol):
            return False
    rc = problem.c - problem.A.T @ y
    rc_scale = 1.0 + np.abs(problem.c) + np.abs(problem.A.T) @ np.abs(y)
    for j in range(problem.n_vars):
        if x[j] > tol * xmax and abs(rc[j]) > tol * rc_scale[j]:
            return False
        if rc[j] < -tol * rc_scale[j]:
            return False
    return True


def random_bounded_lp(rng: np.random.Generator, max_vars: int = 8, max_rows: int = 12) -> LpProblem:
    """Feasible bounded LP: a known interior point fixes the right-hand
    sides and one reserved row caps the variable sum."""
    d = int(rng.integers(2, max_vars + 1))
    r = int(rng.integers(1, max_rows))  # one row reserved for the cap
    A = rng.normal(size=(r, d)) * rng.choice([0.1, 1.0, 10.0], size=(r, d))
    x0 = rng.uniform(0.1, 2.0, size=d)
    rels: list[str] = []
    n_eq = 0
    for _ in range(r):
        rel = str(rng.choice([LE, GE, EQ]))
        if rel == EQ and n_eq >= d - 1:
            rel = LE
        if rel == EQ:
            n_eq += 1
        rels.append(rel)
    b = A @ x0
    for i, rel in enumerate(rels):
        if rel == LE:
            b[i] += float(rng.uniform(0.0, 2.0))
        elif rel == GE:
            b[i] -= float(rng.uniform(0.0, 2.0))
    A = np.vstack([A, np.ones(d)])
    b = np.append(b, x0.sum() + 10.0)
    rels.append(LE)
    c = rng.normal(size=d)
    return LpProblem(c=c, A=A, relations=tuple(rels), b=b)


def degenerate_lp(rng: np.random.Generator) -> LpProblem:
    """Heavily tied instance: duplicated rows force degenerate pivots."""
    d = int(rng.integers(2, 5))
    base = rng.normal(size=(2, d))
    A = np.vstack([base, base, base[::-1], np.ones(d)])
    b = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 4.0])
    rels = (LE,) * 7
    c = rng.normal(size=d)
    return LpProblem(c=c, A=A, relations=rels, b=b)


def lambda_sum_range_highs(X: np.ndarray, Y: np.ndarray, j: int) -> tuple[float, float]:
    """Min and max of sum(lambda) over the CRS optimal set of unit j, each
    solved by HiGHS (scipy.optimize.linprog): first the CRS score, then
    the intensity sum over the envelopment rows at that score. The
    contracted inputs get a 1e-8 relative cushion, far below the 1e-6
    returns-to-scale tolerance, so HiGHS's own score stays feasible. Both
    solves run at the 1e-10 feasibility tolerances of
    envelopment_theta_highs."""
    from scipy.optimize import linprog

    tight = dict(primal_feasibility_tolerance=1e-10, dual_feasibility_tolerance=1e-10)

    def solve(c, A_ub, b_ub):
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs", options=tight)
        if res.status != 0:
            raise RuntimeError(f"HiGHS: {res.message}")
        return float(res.fun)

    n, m = X.shape
    s = Y.shape[1]
    A_crs = np.vstack(
        [np.column_stack([-X[j][:, None], X.T]), np.column_stack([np.zeros((s, 1)), -Y.T])]
    )
    theta = solve(np.r_[1.0, np.zeros(n)], A_crs, np.r_[np.zeros(m), -Y[j]])
    A_sum = np.vstack([X.T, -Y.T])
    b_sum = np.r_[theta * X[j] * (1.0 + 1e-8), -Y[j]]
    return solve(np.ones(n), A_sum, b_sum), -solve(-np.ones(n), A_sum, b_sum)


def envelopment_theta_highs(X: np.ndarray, Y: np.ndarray, j: int, vrs: bool) -> tuple[float, float]:
    """Unit j's input-oriented score over all units, solved by HiGHS dual
    simplex and by HiGHS interior point, both at 1e-10 feasibility
    tolerances. On data spanning many decades the two can disagree; a
    caller trusts the score only where they agree."""
    from scipy.optimize import linprog

    n, m = X.shape
    s = Y.shape[1]
    A_ub = np.vstack(
        [np.column_stack([-X[j][:, None], X.T]), np.column_stack([np.zeros((s, 1)), -Y.T])]
    )
    b_ub = np.r_[np.zeros(m), -Y[j]]
    eq = dict(A_eq=np.r_[0.0, np.ones(n)][None], b_eq=[1.0]) if vrs else {}
    tight = dict(primal_feasibility_tolerance=1e-10, dual_feasibility_tolerance=1e-10)
    out = []
    for method in ("highs-ds", "highs-ipm"):
        res = linprog(np.r_[1.0, np.zeros(n)], A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method=method, options=tight, **eq)
        if res.status != 0:
            raise RuntimeError(f"HiGHS: {res.message}")
        out.append(float(res.fun))
    return out[0], out[1]


# -- quadrature oracles ----------------------------------------------------


def simpson(f, lo: float, hi: float, n: int = 4000) -> float:
    """Composite Simpson rule with an even panel count."""
    xs = np.linspace(lo, hi, 2 * n + 1)
    ys = np.asarray([f(x) for x in xs])
    h = (hi - lo) / (2 * n)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1::2].sum() + 2.0 * ys[2:-1:2].sum()))


def normal_cdf_by_integration(z: float) -> float:
    """Phi(z) = 1/2 + integral of the density from 0 to z."""

    def density(t):
        return float(mpmath.exp(-0.5 * t * t) / mpmath.sqrt(2 * mpmath.pi))

    return 0.5 + simpson(density, 0.0, z)


def normal_cdf_mp(z) -> mpmath.mpf:
    """Phi(z) through erfc at the working precision, so that the deep left
    tail keeps its digits."""
    return mpmath.erfc(-mpmath.mpf(z) / mpmath.sqrt(2)) / 2


def log_normal_cdf_mp(z) -> mpmath.mpf:
    """log Phi(z), through log1p on the right so that log Phi(8) keeps its digits."""
    if z < 0:
        return mpmath.log(normal_cdf_mp(z))
    return mpmath.log1p(-normal_cdf_mp(-z))


def chi_square_sf_by_integration(x: float, df: int) -> float:
    """Upper-tail chi-square mass by direct integration of the density."""
    half = mpmath.mpf(df) / 2

    def density(t):
        t = mpmath.mpf(t)
        return t ** (half - 1) * mpmath.exp(-t / 2) / (2**half * mpmath.gamma(half))

    return float(mpmath.quad(density, [x, mpmath.inf]))


def tobit_loglik_reference(y, X, lower, upper, beta, sigma) -> float:
    """Straightforward per-row censored-normal log likelihood in extended
    precision, no log-domain manipulation."""
    mpmath.mp.dps = 40
    total = mpmath.mpf(0)
    sigma = mpmath.mpf(sigma)
    for yi, xi in zip(y, X):
        mean = mpmath.mpf(float(np.dot(xi, beta)))
        if yi == lower:
            total += mpmath.log(mpmath.ncdf((lower - mean) / sigma))
        elif yi == upper:
            total += mpmath.log(mpmath.ncdf((mean - upper) / sigma))
        else:
            z = (mpmath.mpf(float(yi)) - mean) / sigma
            total += mpmath.log(mpmath.npdf(z) / sigma)
    return float(total)


def tobit_terms_by_row(y, X, lower, upper, beta, sigma):
    """Each row's censored-normal log likelihood, score and Hessian in
    (beta, log sigma): arrays of shape (N,), (N, k+1) and (N, k+1, k+1).

    An interior row with z = (y - x'beta) / sigma adds log phi(z) - log
    sigma; a row on a limit, with a = sign * (x'beta - limit) / sigma,
    adds log Phi(a) through scipy's log_ndtr.
    """
    from scipy.special import log_ndtr

    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    mean = X @ beta
    at_lower, at_upper = y == lower, y == upper
    inside = ~(at_lower | at_upper)
    sign = np.where(at_upper, 1.0, -1.0)
    a = sign * (mean - np.where(at_upper, upper, lower)) / sigma
    z = (y - mean) / sigma
    log_cdf = log_ndtr(a)
    ratio = np.exp(-0.5 * a * a - 0.5 * math.log(2.0 * math.pi) - log_cdf)  # phi(a) / Phi(a)
    dratio = -a * ratio - ratio * ratio

    ll = np.where(inside, -0.5 * z * z - 0.5 * math.log(2.0 * math.pi) - math.log(sigma), log_cdf)
    s_b = np.where(inside, z / sigma, sign * ratio / sigma)
    s_t = np.where(inside, z * z - 1.0, -a * ratio)
    w_bb = np.where(inside, -1.0 / sigma**2, dratio / sigma**2)
    w_bt = np.where(inside, -2.0 * z / sigma, -sign * (a * dratio + ratio) / sigma)
    w_tt = np.where(inside, -2.0 * z * z, a * ratio + a * a * dratio)

    n, k = X.shape
    score = np.column_stack([s_b[:, None] * X, s_t])
    hess = np.empty((n, k + 1, k + 1))
    hess[:, :k, :k] = w_bb[:, None, None] * X[:, :, None] * X[:, None, :]
    hess[:, :k, k] = w_bt[:, None] * X
    hess[:, k, :k] = hess[:, :k, k]
    hess[:, k, k] = w_tt
    return ll, score, hess


class NonFiniteEvaluation(Exception):
    """A function evaluation in ``fd_gradient`` returned NaN or infinity."""


def fd_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of k reals."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        hi = float(f(x + step))
        lo = float(f(x - step))
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NonFiniteEvaluation(f"non-finite evaluation near coordinate {i}")
        grad[i] = (hi - lo) / (2.0 * h)
    return grad


def _keyed_rows_by_cell(path) -> tuple[list[str], list[str], list[dict]]:
    """(ids, value columns, DictReader rows) of a CSV keyed by id, skipping
    lines that start with '#'; the first repeated id raises DuplicateId."""
    text = Path(path).read_text("utf-8")
    reader = csv.DictReader(ln for ln in io.StringIO(text) if not ln.startswith("#"))
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
    return ids, [h for h in header if h not in ("id", "name")], rows


def _finite_cell(raw, row: int, col: str) -> float:
    try:
        v = float(raw)
    except (TypeError, ValueError):
        raise NonNumericCell(row, col, raw) from None
    if not math.isfinite(v):
        raise NonNumericCell(row, col, raw)
    return v


def read_covariates_by_cell(path) -> tuple[list[str], list[str], np.ndarray]:
    """The covariate reader of ``effx tobit``/``pipeline``, one cell at a
    time in row-major order: finite numbers, SUSTAINABILITY an integer
    0..7, OWNERSHIP and GROUP 0/1."""
    ids, cols, rows = _keyed_rows_by_cell(path)
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
            if col in ("OWNERSHIP", "GROUP") and v not in (0.0, 1.0):
                raise InvalidDataset(f"row {i}: {col} must be a 0/1 flag, got {raw}")
            data[i - 1, j] = v
    return ids, cols, data


def read_scores_by_cell(path) -> tuple[list[str], dict[str, np.ndarray]]:
    """The score reader of ``effx tobit``, one cell at a time in
    column-major order over the 'ote' and 'pte' columns."""
    ids, cols, rows = _keyed_rows_by_cell(path)
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


def parse_dataset_by_cell(text: str, input_names, output_names) -> Dataset:
    """``effx.dataset.parse_dataset`` one cell at a time, row by row, with
    the Dataset checks one unit at a time after it: the first bad cell or
    unit raises."""
    input_names, output_names = tuple(input_names), tuple(output_names)
    reader = csv.DictReader(io.StringIO(text))
    header = reader.fieldnames or []
    for required in ("id", *input_names, *output_names):
        if required not in header:
            raise MissingColumn(required)

    def number(raw, row, col):
        try:
            return float(raw)
        except (TypeError, ValueError):
            raise NonNumericCell(row, col, raw) from None

    records = []
    ids: set[str] = set()
    for row_no, row in enumerate(reader, start=1):
        dmu_id = (row["id"] or "").strip()
        if dmu_id in ids:
            raise DuplicateId(dmu_id)
        ids.add(dmu_id)
        inputs = []
        for col in input_names:
            v = number(row[col], row_no, col)
            if not v > 0.0:
                raise NonPositiveInput(row_no, col, v)
            inputs.append(v)
        outputs = [number(row[col], row_no, col) for col in output_names]
        group = number(row["GROUP"], row_no, "GROUP") != 0.0 if "GROUP" in header else False
        name = row["name"] if "name" in header else dmu_id
        records.append(DmuRecord(dmu_id, name, tuple(inputs), tuple(outputs), group))
    if not records:
        raise InvalidDataset("a dataset needs at least one unit (n >= 1)")
    for rec in records:
        for col, v in zip(input_names, rec.inputs):
            if not math.isfinite(v) or v <= 0.0:
                raise InvalidDataset(f"unit {rec.id!r}, input {col!r}: must be finite and > 0, got {v}")
        for col, v in zip(output_names, rec.outputs):
            if not math.isfinite(v) or v < 0.0:
                raise InvalidDataset(f"unit {rec.id!r}, output {col!r}: must be finite and >= 0, got {v}")
    return Dataset(tuple(records), input_names, output_names)
