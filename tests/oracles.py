"""Independent reference implementations used to freeze expected values.

None of these share code paths with the package: linear programs are
solved by brute-force vertex enumeration or by HiGHS, tail probabilities by
quadrature, and likelihoods by direct per-row evaluation in extended
precision.
"""

from __future__ import annotations

import itertools

import mpmath
import numpy as np

from effx.lp import EQ, GE, LE, LpProblem


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
    returns-to-scale tolerance, so HiGHS's own score stays feasible."""
    from scipy.optimize import linprog

    def solve(c, A_ub, b_ub):
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")
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
