"""Output checks for benchmark ops, independent of effx's own solvers.

DEA tables are checked against HiGHS (``scipy.optimize.linprog``); the
censored regression against a maximum-likelihood fit by BFGS on a
separately written log likelihood; the fixture pipeline against the
golden table and byte references captured at the commit that defined
the benchmark. Checks run outside the timed region.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

# Golden per-unit (ote, pte, se, rts) for the bundled fixture, to two
# decimals; unrounded scores must lie within 0.005 of them.
GOLDEN_SCORES = {
    "BGY": (1.00, 1.00, 1.00, "Constant"),
    "CTA": (1.00, 1.00, 1.00, "Constant"),
    "LIN-MXP": (1.00, 1.00, 1.00, "Constant"),
    "NAP": (1.00, 1.00, 1.00, "Constant"),
    "CIA-FCO": (1.00, 1.00, 1.00, "Constant"),
    "VIC": (1.00, 1.00, 1.00, "Constant"),
    "BLQ": (0.99, 1.00, 0.99, "Increasing"),
    "LMP": (0.83, 1.00, 0.83, "Increasing"),
    "PEG": (0.72, 1.00, 0.72, "Increasing"),
    "GRS": (0.65, 1.00, 0.65, "Increasing"),
    "EBA": (0.64, 1.00, 0.64, "Increasing"),
    "BZO": (0.50, 1.00, 0.50, "Increasing"),
    "OLB": (0.99, 0.99, 0.99, "Increasing"),
    "PMO": (0.94, 0.96, 0.99, "Increasing"),
    "GOA": (0.89, 0.94, 0.95, "Increasing"),
    "TSF": (0.86, 0.93, 0.92, "Increasing"),
    "SUF-REG-CRV": (0.90, 0.92, 0.98, "Increasing"),
    "FLR-PSA": (0.91, 0.91, 1.00, "Increasing"),
    "VRN-VBS": (0.86, 0.86, 0.99, "Increasing"),
    "TRS": (0.79, 0.82, 0.96, "Increasing"),
    "TRN": (0.82, 0.82, 0.99, "Increasing"),
    "RMI": (0.74, 0.82, 0.90, "Increasing"),
    "CAG": (0.78, 0.78, 0.99, "Increasing"),
    "BRI-BDS-FOG-TAR": (0.78, 0.78, 0.99, "Increasing"),
    "AHO": (0.74, 0.76, 0.97, "Increasing"),
    "PSR": (0.68, 0.76, 0.89, "Increasing"),
    "CUF": (0.50, 0.66, 0.75, "Increasing"),
    "TPS": (0.48, 0.58, 0.83, "Increasing"),
    "AOI": (0.52, 0.57, 0.90, "Increasing"),
    "PMF": (0.23, 0.48, 0.48, "Increasing"),
}
GOLDEN_TOL = 0.005 + 1e-12

SCORE_TOL = 0.005 + 1e-6  # printed to 2 decimals; HiGHS optimum to ~1e-9
RTS_TOL = 1e-6  # effx's default DeaOptions.rts_tol
# Coefficients and sigma are printed to 3 decimals (0.0005) and the BFGS
# oracle stops within about 1e-5 of the optimum.
COEF_TOL = 0.0005 + 2e-4

REF_DIR = Path(__file__).resolve().parent / "ref"


def reference_output(pool: int) -> str:
    return (REF_DIR / f"airports_{pool:02d}.out").read_text("utf-8")


def check_golden_frontier(report) -> list[str]:
    """Problems with a FrontierReport of the bundled fixture, if any."""
    problems = []
    for r in report.results:
        ote, pte, se, rts = GOLDEN_SCORES[r.dmu_id]
        for label, got, want in (("ote", r.ote, ote), ("pte", r.pte, pte), ("se", r.se, se)):
            if abs(got - want) > GOLDEN_TOL:
                problems.append(f"{r.dmu_id} {label} {got:.6f} != {want:.2f}")
        if r.rts.value != rts:
            problems.append(f"{r.dmu_id} rts {r.rts.value} != {rts}")
    if len(report.results) != len(GOLDEN_SCORES):
        problems.append(f"{len(report.results)} units, expected {len(GOLDEN_SCORES)}")
    if report.efficient_crs != 6 or report.efficient_vrs != 12:
        problems.append(f"efficient crs={report.efficient_crs} vrs={report.efficient_vrs}, expected 6 and 12")
    return problems


def _table_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


def _linprog(c, A_ub, b_ub, A_eq=None, b_eq=None) -> float:
    from scipy.optimize import linprog

    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return float(res.fun)


def dea_oracle(X: np.ndarray, Y: np.ndarray, j: int) -> tuple[float, float, str]:
    """(ote, pte, rts class) of unit j by HiGHS, input-oriented."""
    n = X.shape[0]
    # Variables (theta, lambda): theta x_j - X' lambda >= 0, Y' lambda >= y_j.
    A_ub = np.vstack(
        [
            np.column_stack([-X[j][:, None], X.T]),
            np.column_stack([np.zeros((Y.shape[1], 1)), -Y.T]),
        ]
    )
    b_ub = np.concatenate([np.zeros(X.shape[1]), -Y[j]])
    c = np.zeros(n + 1)
    c[0] = 1.0
    ote = _linprog(c, A_ub, b_ub)
    A_eq = np.concatenate([[0.0], np.ones(n)])[None, :]
    pte = _linprog(c, A_ub, b_ub, A_eq, [1.0])
    # Range of sum(lambda) over the CRS optimal set, with the same
    # one-part-per-billion cushion on the contracted inputs as effx.
    A_rng = np.vstack([X.T, -Y.T])
    b_rng = np.concatenate([ote * X[j] * (1.0 + 1e-9), -Y[j]])
    low = _linprog(np.ones(n), A_rng, b_rng)
    high = -_linprog(-np.ones(n), A_rng, b_rng)
    if high < 1.0 - RTS_TOL:
        rts = "Increasing"
    elif low > 1.0 + RTS_TOL:
        rts = "Decreasing"
    else:
        rts = "Constant"
    return ote, pte, rts


def check_dea_table(text: str, X: np.ndarray, Y: np.ndarray, sample: list[int]) -> list[str]:
    """Compare a printed ``dea --rts both`` table with HiGHS on the
    sampled units; ids and row count are checked for every unit."""
    rows = _table_rows(text)
    if not rows or rows[0] != ["id", "ote", "pte", "se", "rts"]:
        return [f"unexpected header {rows[:1]}"]
    body = rows[1:]
    if [r[0] for r in body] != [f"u{i}" for i in range(X.shape[0])]:
        return ["ids missing or out of order"]
    problems = []
    for j in sample:
        ote, pte, rts = dea_oracle(X, Y, j)
        got = body[j]
        for label, printed, want in (
            ("ote", got[1], ote),
            ("pte", got[2], pte),
            ("se", got[3], min(ote / pte, 1.0)),
        ):
            if abs(float(printed) - want) > SCORE_TOL:
                problems.append(f"u{j} {label} printed {printed}, HiGHS {want:.6f}")
        if got[4] != rts:
            problems.append(f"u{j} rts printed {got[4]}, HiGHS {rts}")
    return problems


def _read_column_csv(path: str) -> dict[str, list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = list(zip(*reader))
    return {h: list(c) for h, c in zip(header, cols)}


def tobit_mle(y: np.ndarray, X: np.ndarray, lower: float, upper: float) -> tuple[np.ndarray, float]:
    """Two-limit Tobit (beta, sigma) by BFGS over (beta, log sigma)."""
    from scipy.optimize import minimize
    from scipy.special import log_ndtr

    lo, hi = y <= lower, y >= upper
    mid = ~(lo | hi)
    Xl, Xh, Xm, ym = X[lo], X[hi], X[mid], y[mid]

    def negll(theta):
        beta, log_s = theta[:-1], theta[-1]
        s = np.exp(log_s)
        zm = (ym - Xm @ beta) / s
        zl = (lower - Xl @ beta) / s
        zh = (Xh @ beta - upper) / s
        ll = -0.5 * zm @ zm - zm.size * (log_s + 0.5 * np.log(2 * np.pi))
        ll += log_ndtr(zl).sum() + log_ndtr(zh).sum()
        # Gradient: d log Phi(z) / dz = phi(z) / Phi(z).
        ml = np.exp(-0.5 * zl * zl - 0.5 * np.log(2 * np.pi) - log_ndtr(zl))
        mh = np.exp(-0.5 * zh * zh - 0.5 * np.log(2 * np.pi) - log_ndtr(zh))
        g_beta = Xm.T @ zm / s - Xl.T @ ml / s + Xh.T @ mh / s
        g_logs = (zm @ zm - zm.size) - ml @ zl - mh @ zh
        return -ll, -np.append(g_beta, g_logs)

    beta0 = np.linalg.lstsq(X, y, rcond=None)[0]
    s0 = np.log(np.std(y - X @ beta0))
    res = minimize(negll, np.append(beta0, s0), jac=True, method="BFGS", options={"gtol": 1e-7, "maxiter": 2000})
    return res.x[:-1], float(np.exp(res.x[-1]))


def check_regression_table(text: str, scores_path: str, covariates_path: str) -> list[str]:
    """Compare the printed estimates and sigma of both responses with the
    independent fit on the files the op read."""
    scores = _read_column_csv(scores_path)
    covs = _read_column_csv(covariates_path)
    names = [h for h in covs if h != "id"]
    index = {rid: i for i, rid in enumerate(covs["id"])}
    order = [index[rid] for rid in scores["id"]]
    C = np.array([[float(covs[h][i]) for h in names] for i in order])
    X = np.column_stack([np.ones(len(order)), C])
    rows = {r[0]: r for r in _table_rows(text)[1:]}
    header = _table_rows(text)[0]
    problems = []
    for label in ("ote", "pte"):
        y = np.clip(np.array([float(v) for v in scores[label]]), 0.0, 1.0)
        beta, sigma = tobit_mle(y, X, 0.0, 1.0)
        col = header.index(f"estimate_{label}")
        for name, want in zip(["const", *names, "sigma"], [*beta, sigma]):
            printed = rows[name][col]
            if abs(float(printed) - want) > COEF_TOL:
                problems.append(f"{label} {name} printed {printed}, oracle {want:.6f}")
        if float(rows["observations"][col]) != len(order):
            problems.append(f"{label} observations {rows['observations'][col]} != {len(order)}")
    return problems
