"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""

import contextlib
import io
import time

import numpy as np
import pytest

from effx.cli import run as cli_run
from effx.dataset import bundled_fixture, summarize
from effx.dea import DeaOptions, Rts, build_envelopment_lp, efficiency
from effx.dea import run_frontier
from effx.lp import LpStatus, solve_lp
from effx.tobit import (
    CensoredSample,
    fit,
    log_likelihood,
    lr_test,
    score_and_hessian,
    wald_test,
)
from conftest import random_dataset
from oracles import degenerate_lp, fd_gradient, random_bounded_lp, vertex_minimum

# Golden per-unit scores and returns-to-scale classes for the bundled
# dataset, rounded to two decimals (the toolkit's reference regression
# target). Checked pre-rounding at +-0.005.
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

# Golden summary rows (min, q1, median, mean, q3, max) for the four input
# columns, in the units the bundled dataset stores.
GOLDEN_SUMMARY = {
    "EMPLOYEES": (5.0, 39.5, 158.0, 298.1, 271.2, 2731.0),
    "CHINDESKS": (2.0, 8.2, 22.5, 49.6, 46.0, 461.0),
    "RUNWAYMT": (1095.0, 2440.0, 2993.0, 4005.1, 3319.5, 16909.0),
    "PRODCOSTS": (760.2, 7003.0, 29488.2, 79888.7, 76644.9, 703507.0),
}

TOL = 0.005 + 1e-12


def report(num: int, label: str, ok: bool):
    print(f"[acceptance] criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


@pytest.fixture(scope="module")
def frontier():
    return run_frontier(bundled_fixture(), DeaOptions())


class TestCriterion1:
    def test_score_table_reproduction(self, frontier):
        t0 = time.perf_counter()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_run(["dea", "--fixture", "--rts", "both"])
        elapsed = time.perf_counter() - t0
        ok = code == 0
        lines = [ln for ln in buf.getvalue().strip().splitlines() if not ln.startswith("#")]
        ok &= len(lines) == 31

        rts_counts = {"Constant": 0, "Increasing": 0, "Decreasing": 0}
        for r in frontier.results:
            ote, pte, se, rts = GOLDEN_SCORES[r.dmu_id]
            ok &= abs(r.ote - ote) <= TOL
            ok &= abs(r.pte - pte) <= TOL
            ok &= abs(r.se - se) <= TOL
            ok &= r.rts.value == rts
            rts_counts[r.rts.value] += 1
        ok &= rts_counts == {"Constant": 6, "Increasing": 24, "Decreasing": 0}
        ok &= elapsed < 2.0
        report(1, f"30-unit score table, rts exact, {elapsed:.2f}s", ok)


class TestCriterion2:
    def test_headline_counts_and_means(self, frontier):
        ok = frontier.efficient_crs == 6
        ok &= frontier.efficient_vrs == 12
        ok &= 0.785 <= frontier.mean_ote <= 0.795
        ok &= 0.874 <= frontier.mean_pte <= 0.884
        report(
            2,
            f"6/12 efficient, means {frontier.mean_ote:.4f}/{frontier.mean_pte:.4f}",
            ok,
        )


class TestCriterion3:
    def test_spot_values(self, frontier):
        by_id = {r.dmu_id: r for r in frontier.results}
        ok = abs(by_id["AHO"].pte - 0.7622) <= 0.001
        ok &= abs(by_id["AHO"].se - 0.9678) <= 0.001
        ok &= abs(by_id["BZO"].ote - 0.4988) <= 0.001
        report(3, "Alghero pte/se and Bolzano ote spot values", ok)


class TestCriterion4:
    def test_summary_partial_reproduction(self):
        stats = {c.name: c for c in summarize(bundled_fixture()).columns}
        ok = True
        for name, (mn, q1, med, mean, q3, mx) in GOLDEN_SUMMARY.items():
            c = stats[name]
            for got, want in ((c.minimum, mn), (c.mean, mean), (c.maximum, mx)):
                ok &= abs(got - want) <= 0.001 * abs(want)
            for got, want in ((c.q1, q1), (c.median, med), (c.q3, q3)):
                ok &= abs(got - want) <= 0.01 * abs(want)
        report(4, "input-column summary statistics", ok)


class TestCriterion5:
    def test_a_score_matches_finite_differences(self):
        rng = np.random.default_rng(501)
        ok = True
        for _ in range(5):
            n = int(rng.integers(30, 80))
            k = int(rng.integers(2, 4))
            X = np.column_stack([np.ones(n)] + [rng.uniform(0, 1, n) for _ in range(k - 1)])
            beta = rng.normal(0.4, 0.2, k)
            y = np.clip(X @ beta + rng.normal(0, 0.3, n), 0.0, 1.0)
            s = CensoredSample(y=y, X=X)
            for _ in range(20):
                psi = np.append(rng.normal(0.3, 0.3, k), np.log(rng.uniform(0.15, 0.8)))
                grad, _ = score_and_hessian(s, psi[:k], float(np.exp(psi[k])))
                approx = fd_gradient(
                    lambda q: log_likelihood(s, q[:k], float(np.exp(q[k]))), psi, h=1e-5
                )
                ok &= np.abs(grad - approx).max() <= 1e-5 * (1.0 + np.abs(grad).max())
        report(5, "a: analytic score vs finite differences", ok)

    def test_b_simulation_recovery_and_coverage(self):
        t0 = time.perf_counter()
        beta_true = np.array([0.5, 0.3])
        sigma_true = 0.2
        n = 500

        rng = np.random.default_rng(42)
        x = rng.uniform(0, 1, n)
        X = np.column_stack([np.ones(n), x])
        y = np.clip(X @ beta_true + rng.normal(0, sigma_true, n), 0.0, 1.0)
        est = fit(CensoredSample(y=y, X=X))
        se = np.sqrt(np.diag(est.cov_robust))
        ok = all(abs(est.beta[i] - beta_true[i]) < 3.0 * se[i] for i in range(2))
        ok &= abs(np.log(est.sigma) - np.log(sigma_true)) < 3.0 * se[2]
        grad, _ = score_and_hessian(est.sample, est.beta, est.sigma)
        ok &= np.abs(grad).max() < 1e-6

        z975 = 1.959963984540054
        hits = np.zeros(2)
        reps = 200
        for rep in range(reps):
            r = np.random.default_rng(10_000 + rep)
            xx = r.uniform(0, 1, n)
            XX = np.column_stack([np.ones(n), xx])
            yy = np.clip(XX @ beta_true + r.normal(0, sigma_true, n), 0.0, 1.0)
            fr = fit(CensoredSample(y=yy, X=XX))
            half = z975 * np.sqrt(np.diag(fr.cov_hessian)[:2])
            hits += np.abs(fr.beta - beta_true) <= half
        coverage = hits / reps
        ok &= all(0.90 <= c <= 0.99 for c in coverage)
        elapsed = time.perf_counter() - t0
        ok &= elapsed < 30.0
        report(
            5,
            f"b: recovery + coverage {coverage.round(3).tolist()} in {elapsed:.1f}s",
            ok,
        )

    def test_c_zero_censoring_matches_ols(self):
        rng = np.random.default_rng(503)
        n = 200
        x = rng.uniform(0, 1, n)
        X = np.column_stack([np.ones(n), x])
        y = np.clip(0.4 + 0.15 * x + rng.normal(0, 0.04, n), 1e-6, 1 - 1e-6)
        s = CensoredSample(y=y, X=X)
        ok = (s.censor_status == 0).all()
        est = fit(s)
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        ok &= np.abs(est.beta - ols).max() < 1e-8
        resid = y - X @ ols
        ok &= abs(est.sigma**2 - float(np.mean(resid**2))) < 1e-8
        report(5, "c: zero-censoring OLS degeneracy", ok)

    def test_d_invariance_suite(self):
        rng = np.random.default_rng(504)
        ok = True
        for _ in range(5):
            n = 60
            X = np.column_stack([np.ones(n), rng.uniform(0, 1, n)])
            beta = np.array([0.5, 0.3])
            y = np.clip(X @ beta + rng.normal(0, 0.2, n), 0.0, 1.0)
            s = CensoredSample(y=y, X=X)
            est = fit(s)

            perm = rng.permutation(n)
            est_p = fit(CensoredSample(y=y[perm], X=X[perm]))
            ok &= np.abs(est.beta - est_p.beta).max() <= 1e-10

            a = float(rng.uniform(3.0, 40.0))
            Xs = X.copy()
            Xs[:, 1] *= a
            est_s = fit(CensoredSample(y=y, X=Xs))
            ok &= abs(est_s.beta[1] * a - est.beta[1]) <= 1e-8
            ok &= abs(est_s.loglik - est.loglik) <= 1e-8
            ok &= abs(est_s.sigma - est.sigma) <= 1e-8
            ok &= abs(wald_test(est_s).stat - wald_test(est).stat) <= 1e-6 * (
                1.0 + wald_test(est).stat
            )

            null = fit(CensoredSample(y=y, X=X[:, :1]))
            res = lr_test(est, null)
            ok &= res.stat >= 0.0
            ok &= 0.0 <= wald_test(est).p_value <= 1.0
        report(5, "d: permutation, rescaling, LR >= 0", ok)


class TestCriterion6:
    def test_dea_property_suite(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(600)
        crs = DeaOptions(returns_to_scale=Rts.CRS)
        vrs = DeaOptions(returns_to_scale=Rts.VRS)
        ok = True
        for _ in range(100):
            ds = random_dataset(rng, n=int(rng.integers(2, 7)))
            base = np.array(
                [[efficiency(ds, j, o) for o in (crs, vrs)] for j in range(ds.n)]
            )
            # nesting and self-evaluation bound
            ok &= (base[:, 1] >= base[:, 0] - 1e-7).all()
            ok &= (base <= 1.0 + 1e-6).all()

            # units invariance under a random column rescaling
            col = int(rng.integers(0, ds.m + ds.s))
            factor = float(rng.choice([1e-3, 0.2, 5.0, 1e3]))
            scaled = _rescale_column(ds, col, factor)
            again = np.array(
                [[efficiency(scaled, j, o) for o in (crs, vrs)] for j in range(ds.n)]
            )
            ok &= np.abs(again - base).max() <= 1e-7

            # a dominated unit changes nobody's score
            bigger = _append_dominated(ds, rng)
            redo = np.array(
                [[efficiency(bigger, j, o) for o in (crs, vrs)] for j in range(ds.n)]
            )
            ok &= np.abs(redo - base).max() <= 1e-7

            # brute-force oracle equivalence
            for j in range(ds.n):
                for col_opts, val in zip((crs, vrs), base[j]):
                    status, ref, _ = vertex_minimum(build_envelopment_lp(ds, j, col_opts))
                    ok &= status == "optimal" and abs(val - ref) <= 1e-7
        elapsed = time.perf_counter() - t0
        ok &= elapsed < 10.0
        report(6, f"DEA property suite on 100 instances in {elapsed:.1f}s", ok)


class TestCriterion7:
    def test_lp_oracle_equivalence(self):
        rng = np.random.default_rng(700)
        ok = True
        for _ in range(1000):
            p = random_bounded_lp(rng)
            sol = solve_lp(p)
            ok &= sol.status is LpStatus.OPTIMAL
            status, ref, _ = vertex_minimum(p)
            ok &= status == "optimal"
            ok &= abs(sol.objective_value - ref) <= 1e-8 * (1.0 + abs(ref))
        for _ in range(50):
            p = degenerate_lp(rng)
            sol = solve_lp(p)
            ok &= sol.status is LpStatus.OPTIMAL
        report(7, "1000 random LPs vs vertex enumeration + degenerate set", ok)


def _rescale_column(ds, col, factor):
    from effx.dataset import Dataset, DmuRecord

    records = []
    for rec in ds.dmus:
        inputs = list(rec.inputs)
        outputs = list(rec.outputs)
        if col < ds.m:
            inputs[col] *= factor
        else:
            outputs[col - ds.m] *= factor
        records.append(DmuRecord(rec.id, rec.name, tuple(inputs), tuple(outputs), rec.group))
    return Dataset(tuple(records), ds.input_names, ds.output_names)


def _append_dominated(ds, rng):
    from effx.dataset import Dataset, DmuRecord

    victim = ds.dmus[int(rng.integers(0, ds.n))]
    worse = DmuRecord(
        id="dominated",
        name="dominated",
        inputs=tuple(v * float(f) for v, f in zip(victim.inputs, rng.uniform(1.0, 2.0, ds.m))),
        outputs=tuple(v * float(f) for v, f in zip(victim.outputs, rng.uniform(0.3, 1.0, ds.s))),
    )
    return Dataset(ds.dmus + (worse,), ds.input_names, ds.output_names)
