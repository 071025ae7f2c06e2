import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effx.tobit
from effx.tobit import (
    CensorStatus,
    CensoredSample,
    FitOptions,
    NoConvergence,
    NotIdentified,
    SampleMismatch,
    TobitFit,
    censored_mean,
    fit,
    inference_report,
    log_likelihood,
    lr_test,
    marginal_effects,
    pseudo_r2,
    robust_covariance,
    score_and_hessian,
    wald_test,
)
from conftest import collapsing_rows
from oracles import (
    fd_gradient,
    log_normal_cdf_mp,
    normal_cdf_mp,
    tobit_loglik_reference,
    tobit_terms_by_row,
)

seeds = st.integers(min_value=0, max_value=10**9)


def simulate(rng, n=80, beta=(0.4, 0.5, -0.2), sigma=0.3, lower=0.0, upper=1.0):
    k = len(beta)
    X = np.column_stack([np.ones(n)] + [rng.uniform(0, 1, n) for _ in range(k - 1)])
    latent = X @ np.asarray(beta) + rng.normal(0, sigma, n)
    return CensoredSample(y=np.clip(latent, lower, upper), X=X, lower=lower, upper=upper)


class TestSampleValidation:
    def test_status_partition(self):
        y = np.array([0.0, 0.5, 1.0])
        s = CensoredSample(y=y, X=np.ones((3, 1)))
        assert list(s.censor_status) == [
            CensorStatus.AT_LOWER,
            CensorStatus.INTERIOR,
            CensorStatus.AT_UPPER,
        ]

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            CensoredSample(y=np.array([1.5]), X=np.ones((1, 1)))

    def test_bad_limits_rejected(self):
        with pytest.raises(ValueError):
            CensoredSample(y=np.array([0.5]), X=np.ones((1, 1)), lower=1.0, upper=0.0)

    @pytest.mark.parametrize(
        "lower, upper", [(-math.inf, 1.0), (0.0, math.inf), (-math.inf, math.inf), (math.nan, 1.0)]
    )
    def test_non_finite_limits_rejected(self, lower, upper):
        with pytest.raises(ValueError, match="finite"):
            CensoredSample(y=np.array([0.5]), X=np.ones((1, 1)), lower=lower, upper=upper)


_ORACLE_CASES = (
    "random",
    "fewer_interior_than_columns",
    "one_interior_row",
    "one_row_on_a_limit",
    "no_interior_row",
    "limits_far_from_zero",
    "near_collinear",
)


def _oracle_case(rng, case):
    """A sample of the named shape, in shuffled row order, and a point
    (beta, sigma) near it."""
    lower, upper = (1000.0, 1001.0) if case == "limits_far_from_zero" else (0.0, 1.0)
    k = int(rng.integers(2, 6))
    n_in = int(rng.integers(k + 1, 40))
    n_lim = int(rng.integers(0, 20))
    if case == "fewer_interior_than_columns":
        n_in = int(rng.integers(1, k))
    elif case == "one_interior_row":
        n_in, n_lim = 1, int(rng.integers(1, 30))
    elif case == "one_row_on_a_limit":
        n_lim = 1
    elif case == "no_interior_row":
        n_in, n_lim = 0, int(rng.integers(1, 30))
    n = n_in + n_lim
    X = np.column_stack([np.ones(n), rng.uniform(-1.0, 1.0, (n, k - 1))])
    if case == "near_collinear":
        X[:, -1] = X[:, 1] + 1e-7 * rng.standard_normal(n)
    width = upper - lower
    y = np.concatenate(
        [
            lower + width * rng.uniform(0.01, 0.99, n_in),
            np.where(rng.uniform(size=n_lim) < 0.5, lower, upper),
        ]
    )
    perm = rng.permutation(n)
    s = CensoredSample(y=y[perm], X=X[perm], lower=lower, upper=upper)
    beta = np.append(lower + 0.5 * width + rng.normal(0.0, 0.3), rng.normal(0.0, 0.5, k - 1))
    return s, beta, float(width * rng.uniform(0.1, 1.5))


class TestLogLikelihood:
    def test_interior_row_at_mean(self):
        s = CensoredSample(y=np.array([0.5]), X=np.ones((1, 1)))
        # log phi(0) with sigma = 1
        assert log_likelihood(s, np.array([0.5]), 1.0) == pytest.approx(
            -0.9189385332046727, abs=1e-9
        )

    def test_upper_row_at_limit_mean(self):
        s = CensoredSample(y=np.array([1.0]), X=np.ones((1, 1)))
        # log Phi(0) = -log 2
        assert log_likelihood(s, np.array([1.0]), 1.0) == pytest.approx(
            -0.6931471805599453, abs=1e-9
        )

    def test_matches_extended_precision_reference(self):
        rng = np.random.default_rng(3)
        s = simulate(rng, n=10)
        assert (s.censor_status != CensorStatus.INTERIOR).any()
        beta = np.array([0.3, 0.4, -0.1])
        ref = tobit_loglik_reference(s.y, s.X, s.lower, s.upper, beta, 0.25)
        assert log_likelihood(s, beta, 0.25) == pytest.approx(ref, rel=1e-12)

    def test_rejects_nonpositive_sigma(self):
        s = CensoredSample(y=np.array([0.5]), X=np.ones((1, 1)))
        with pytest.raises(ValueError):
            log_likelihood(s, np.array([0.5]), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(seeds, st.sampled_from(_ORACLE_CASES))
    def test_likelihood_score_and_hessian_match_the_row_oracle(self, seed, case):
        # Each total is compared with the oracle's row sum, relative to the
        # sum of the rows' magnitudes; the sandwich's per-row pieces too.
        s, beta, sigma = _oracle_case(np.random.default_rng(seed), case)
        ll_rows, score_rows, hess_rows = tobit_terms_by_row(s.y, s.X, s.lower, s.upper, beta, sigma)
        grad, hess = score_and_hessian(s, beta, sigma)
        for got, rows in (
            (log_likelihood(s, beta, sigma), ll_rows),
            (grad, score_rows),
            (hess, hess_rows),
        ):
            assert (np.abs(got - rows.sum(axis=0)) <= 1e-10 * np.abs(rows).sum(axis=0)).all()
        ll_each, *_ = effx.tobit._terms(s, beta, sigma)
        row_scores = effx.tobit._row_scores(s, beta, sigma)
        np.testing.assert_allclose(ll_each, ll_rows, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(row_scores, score_rows, rtol=1e-10, atol=1e-12)


def _sides_sample():
    """Rows on both limits whose standardized distances a = sign * (mean - limit) / sigma
    run from -40 to 8 at beta = (0, 1), sigma = 1, plus one interior row."""
    a = np.linspace(-40.0, 8.0, 25)
    mean_lower = -a  # lower = 0: a = (0 - mean) / 1
    mean_upper = 1.0 + a  # upper = 1: a = (mean - 1) / 1
    x = np.concatenate([mean_lower, mean_upper, [0.5]])
    y = np.concatenate([np.zeros(a.size), np.ones(a.size), [0.5]])
    return CensoredSample(y=y, X=np.column_stack([np.ones(x.size), x])), a


class TestCensoredTerms:
    def test_both_sides_match_extended_precision(self):
        s, a = _sides_sample()
        beta = np.array([0.0, 1.0])
        ll, s_b, *_ = effx.tobit._terms(s, beta, 1.0)
        with mpmath.workdps(50):
            ref_ll = np.array([float(log_normal_cdf_mp(v)) for v in a])
            ref_ratio = np.array([float(mpmath.npdf(v) / normal_cdf_mp(v)) for v in a])
        n = a.size
        for rows, sign in ((slice(0, n), -1.0), (slice(n, 2 * n), 1.0)):
            np.testing.assert_allclose(ll[rows], ref_ll, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(sign * s_b[rows], ref_ratio, rtol=1e-13)

    def test_deep_tail_score_and_hessian_are_finite(self):
        s, _ = _sides_sample()
        grad, hess = score_and_hessian(s, np.array([0.0, 1.0]), 1.0)
        assert np.isfinite(grad).all() and np.isfinite(hess).all()


class TestScoreAndHessian:
    @settings(max_examples=20)
    @given(seeds)
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        s = simulate(rng, n=40)
        psi = np.append(rng.normal(0.3, 0.3, 3), np.log(rng.uniform(0.15, 0.8)))

        def ll(q):
            return log_likelihood(s, q[:3], float(np.exp(q[3])))

        grad, _ = score_and_hessian(s, psi[:3], float(np.exp(psi[3])))
        approx = fd_gradient(ll, psi, h=1e-5)
        assert np.abs(grad - approx).max() <= 1e-5 * (1.0 + np.abs(grad).max())

    @settings(max_examples=10)
    @given(seeds)
    def test_hessian_symmetric_and_matches_fd(self, seed):
        rng = np.random.default_rng(seed)
        s = simulate(rng, n=30)
        psi = np.append(rng.normal(0.3, 0.3, 3), np.log(rng.uniform(0.2, 0.6)))
        grad_fn = lambda q, i: score_and_hessian(s, q[:3], float(np.exp(q[3])))[0][i]
        _, hess = score_and_hessian(s, psi[:3], float(np.exp(psi[3])))
        assert np.abs(hess - hess.T).max() <= 1e-10
        approx = np.column_stack(
            [fd_gradient(lambda q, i=i: grad_fn(q, i), psi, h=1e-5) for i in range(4)]
        )
        assert np.abs(hess - approx.T).max() <= 1e-4 * (1.0 + np.abs(hess).max())

    def test_gradient_vanishes_at_optimum(self):
        rng = np.random.default_rng(9)
        s = simulate(rng, n=200)
        est = fit(s)
        grad, _ = score_and_hessian(s, est.beta, est.sigma)
        assert np.abs(grad).max() < 1e-6


class TestFit:
    def test_intercept_only_uncensored(self):
        rng = np.random.default_rng(4)
        y = rng.uniform(0.2, 0.8, 60)
        est = fit(CensoredSample(y=y, X=np.ones((60, 1))))
        assert est.beta[0] == pytest.approx(y.mean(), abs=1e-8)
        assert est.sigma == pytest.approx(float(np.sqrt(np.mean((y - y.mean()) ** 2))), abs=1e-8)

    def test_seeded_simulation_recovers_truth(self):
        rng = np.random.default_rng(42)
        beta_true, sigma_true = np.array([0.5, 0.3]), 0.2
        n = 500
        x = rng.uniform(0, 1, n)
        X = np.column_stack([np.ones(n), x])
        y = np.clip(X @ beta_true + rng.normal(0, sigma_true, n), 0.0, 1.0)
        s = CensoredSample(y=y, X=X)
        est = fit(s)
        se = np.sqrt(np.diag(est.cov_robust))
        for i in range(2):
            assert abs(est.beta[i] - beta_true[i]) < 3.0 * se[i]
        assert abs(np.log(est.sigma) - np.log(sigma_true)) < 3.0 * se[2]
        grad, _ = score_and_hessian(s, est.beta, est.sigma)
        assert np.abs(grad).max() < 1e-6
        assert est.converged

    def test_all_upper_not_identified(self):
        s = CensoredSample(y=np.ones(5), X=np.ones((5, 1)))
        with pytest.raises(NotIdentified):
            fit(s)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_collapsing_sigma_not_identified(self, seed):
        # Newton steps drive sigma towards 0 without end. From seed 0 they
        # creep until the iteration cap; from seed 5 a step underflows
        # sigma, which once raised ZeroDivisionError.
        x, y = collapsing_rows(seed)
        s = CensoredSample(y=y, X=np.column_stack([np.ones(x.size), x]))
        with pytest.raises(NotIdentified, match="sigma collapses"):
            fit(s)

    def test_rank_deficient_not_identified(self):
        y = np.array([0.2, 0.4, 0.6])
        X = np.column_stack([np.ones(3), 2.0 * np.ones(3)])
        with pytest.raises(NotIdentified):
            fit(CensoredSample(y=y, X=X))

    def test_zero_censoring_matches_ols(self):
        rng = np.random.default_rng(10)
        n = 120
        x = rng.uniform(0, 1, n)
        X = np.column_stack([np.ones(n), x])
        y = np.clip(0.3 + 0.2 * x + rng.normal(0, 0.05, n), 1e-3, 1 - 1e-3)
        s = CensoredSample(y=y, X=X)
        assert (s.censor_status == CensorStatus.INTERIOR).all()
        est = fit(s)
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        assert np.abs(est.beta - ols).max() < 1e-8
        resid = y - X @ ols
        assert est.sigma**2 == pytest.approx(float(np.mean(resid**2)), abs=1e-8)

    def test_far_start_records_line_search_halvings(self):
        # One high-leverage row on the upper limit pulls the least-squares
        # start far from the optimum, so the first Newton steps overshoot.
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, 40)
        x[0] = 20.0
        X = np.column_stack([np.ones(40), x])
        y = np.clip(0.3 + 0.4 * x + rng.normal(0, 0.2, 40), 0.0, 1.0)
        est = fit(CensoredSample(y=y, X=X))
        assert est.converged
        assert est.halvings >= 1

    def test_iteration_cap_raises(self):
        rng = np.random.default_rng(11)
        s = simulate(rng, n=100)
        with pytest.raises(NoConvergence):
            fit(s, FitOptions(max_iterations=1))

    def test_covariance_invariants(self):
        rng = np.random.default_rng(23)
        est = fit(simulate(rng, n=90))
        for cov in (est.cov_hessian, est.cov_robust):
            assert np.abs(cov - cov.T).max() <= 1e-12 * (1.0 + np.abs(cov).max())
            assert (np.diag(cov) >= 0.0).all()

    def test_loglik_path_never_decreases(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            est = fit(simulate(rng, n=60))
            for a, b in zip(est.loglik_path, est.loglik_path[1:]):
                assert b >= a - 1e-10 * (1.0 + abs(a))

    @settings(max_examples=10)
    @given(seeds)
    def test_row_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        s = simulate(rng, n=50)
        est = fit(s)
        perm = rng.permutation(s.n_obs)
        est_p = fit(CensoredSample(y=s.y[perm], X=s.X[perm]))
        assert np.abs(est.beta - est_p.beta).max() <= 1e-10
        assert abs(est.sigma - est_p.sigma) <= 1e-10

    @settings(max_examples=10)
    @given(seeds)
    def test_covariate_rescaling(self, seed):
        rng = np.random.default_rng(seed)
        s = simulate(rng, n=60)
        a = float(rng.uniform(2.0, 50.0))
        Xs = s.X.copy()
        Xs[:, 1] *= a
        scaled = CensoredSample(y=s.y, X=Xs)
        est, est_s = fit(s), fit(scaled)
        assert est_s.beta[1] * a == pytest.approx(est.beta[1], abs=1e-8)
        assert est_s.sigma == pytest.approx(est.sigma, abs=1e-8)
        assert est_s.loglik == pytest.approx(est.loglik, abs=1e-8)
        assert wald_test(est_s).stat == pytest.approx(wald_test(est).stat, rel=1e-6)
        me, me_s = marginal_effects(s, est), marginal_effects(scaled, est_s)
        assert me_s[1] * a == pytest.approx(me[1], abs=1e-8)
        assert me_s[0] == pytest.approx(me[0], abs=1e-8)


class TestRobustCovariance:
    def test_intercept_only_reduces_to_sample_variance(self):
        rng = np.random.default_rng(6)
        y = rng.uniform(0.1, 0.9, 80)
        s = CensoredSample(y=y, X=np.ones((80, 1)))
        est = fit(s)
        cov = robust_covariance(s, est)
        assert cov[0, 0] == pytest.approx(float(np.var(y)) / 80, abs=1e-8)

    def test_reuses_the_fitted_inverse_hessian(self, monkeypatch):
        rng = np.random.default_rng(9)
        s = simulate(rng, n=60)
        est = fit(s)
        calls = []
        for name in ("solve_spd", "score_and_hessian"):
            original = getattr(effx.tobit, name)

            def counting(*args, _name=name, _fn=original, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(effx.tobit, name, counting)
        cov = robust_covariance(s, est)
        assert calls == []
        assert np.array_equal(cov, est.cov_robust)

    def test_symmetric(self):
        rng = np.random.default_rng(7)
        s = simulate(rng, n=70)
        cov = robust_covariance(s, fit(s))
        assert np.abs(cov - cov.T).max() == 0.0

    def test_close_to_hessian_se_when_well_specified(self):
        rng = np.random.default_rng(8)
        s = simulate(rng, n=4000, beta=(0.5, 0.3), sigma=0.2)
        est = fit(s)
        se_r = np.sqrt(np.diag(est.cov_robust))
        se_h = np.sqrt(np.diag(est.cov_hessian))
        assert (np.abs(se_r / se_h - 1.0) < 0.25).all()


def _fake_fit(beta, cov, sample):
    k = len(beta)
    return TobitFit(
        beta=np.asarray(beta, dtype=float),
        sigma=1.0,
        loglik=0.0,
        cov_hessian=np.asarray(cov, dtype=float),
        cov_robust=np.asarray(cov, dtype=float),
        iterations=0,
        converged=True,
        sample=sample,
        loglik_path=(0.0,),
    )


class TestWald:
    def test_zero_slopes(self):
        s = CensoredSample(y=np.array([0.5, 0.6]), X=np.column_stack([np.ones(2), [0.1, 0.9]]))
        est = _fake_fit([0.3, 0.0], np.eye(3), s)
        res = wald_test(est)
        assert res.stat == 0.0
        assert res.df == 1
        assert res.p_value == 1.0

    def test_single_slope_two_se(self):
        s = CensoredSample(y=np.array([0.5, 0.6]), X=np.column_stack([np.ones(2), [0.1, 0.9]]))
        est = _fake_fit([0.3, 2.0], np.eye(3), s)
        res = wald_test(est)
        assert res.stat == pytest.approx(4.0, abs=1e-12)
        assert res.p_value == pytest.approx(0.0455, abs=0.0005)

    def test_strong_signal_significant_at_small_n(self):
        rng = np.random.default_rng(21)
        s = simulate(rng, n=30, beta=(0.3, 0.5), sigma=0.05)
        res = wald_test(fit(s))
        assert res.df == 1
        assert res.p_value < 0.01


class TestLrAndFitStats:
    def test_identical_models(self):
        rng = np.random.default_rng(13)
        s = simulate(rng, n=50)
        est = fit(s)
        res = lr_test(est, est)
        assert res.stat == 0.0 and res.p_value == 1.0

    def test_full_vs_intercept_only(self):
        rng = np.random.default_rng(42)
        s = simulate(rng, n=300, beta=(0.5, 0.3), sigma=0.15)
        full = fit(s)
        null = fit(CensoredSample(y=s.y, X=np.ones((s.n_obs, 1))))
        res = lr_test(full, null)
        assert res.stat > 0.0
        assert res.df == 1
        assert res.p_value < 0.01

    def test_reorder_invariance(self):
        rng = np.random.default_rng(14)
        s = simulate(rng, n=60)
        perm = rng.permutation(s.n_obs)
        sp = CensoredSample(y=s.y[perm], X=s.X[perm])
        stat = lr_test(fit(s), fit(CensoredSample(y=s.y, X=s.X[:, :1]))).stat
        stat_p = lr_test(fit(sp), fit(CensoredSample(y=sp.y, X=sp.X[:, :1]))).stat
        assert stat == pytest.approx(stat_p, abs=1e-8)

    def test_sample_mismatch(self):
        rng = np.random.default_rng(15)
        a, b = fit(simulate(rng, n=40)), fit(simulate(rng, n=40))
        with pytest.raises(SampleMismatch):
            lr_test(a, b)

    def test_never_negative(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            s = simulate(rng, n=40, beta=(0.5, 0.0), sigma=0.2)
            full = fit(s)
            null = fit(CensoredSample(y=s.y, X=s.X[:, :1]))
            assert lr_test(full, null).stat >= 0.0


class TestPseudoR2:
    def test_full_equals_null(self):
        rng = np.random.default_rng(17)
        y = np.clip(rng.normal(0.5, 0.2, 60), 0.0, 1.0)
        null = fit(CensoredSample(y=y, X=np.ones((60, 1))))
        res = pseudo_r2(null, null)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_strong_signal_in_unit_interval(self):
        rng = np.random.default_rng(42)
        s = simulate(rng, n=300, beta=(0.5, 0.3), sigma=0.15)
        full = fit(s)
        null = fit(CensoredSample(y=s.y, X=np.ones((s.n_obs, 1))))
        res = pseudo_r2(full, null)
        assert 0.0 < res.value < 1.0

    def test_small_sigma_interior_approaches_one(self):
        rng = np.random.default_rng(18)
        n = 150
        x = rng.uniform(0, 1, n)
        X = np.column_stack([np.ones(n), x])
        y = np.clip(0.4 + 0.2 * x + rng.normal(0, 0.005, n), 1e-4, 1 - 1e-4)
        s = CensoredSample(y=y, X=X)
        full = fit(s)
        null = fit(CensoredSample(y=y, X=np.ones((n, 1))))
        res = pseudo_r2(full, null)
        assert res.variant == "squared_correlation"
        assert res.value > 0.95


class TestMarginalEffects:
    def test_small_sigma_interior_equals_beta(self):
        rng = np.random.default_rng(19)
        n = 100
        x = rng.uniform(0.2, 0.8, n)
        X = np.column_stack([np.ones(n), x])
        y = np.clip(0.5 + 0.1 * x, 0.0, 1.0)
        s = CensoredSample(y=y, X=X)
        est = _fake_fit([0.5, 0.1], np.eye(3), s)
        est.sigma = 1e-6
        np.testing.assert_allclose(marginal_effects(s, est), [0.5, 0.1], atol=1e-9)

    def test_zero_coefficients(self):
        s = CensoredSample(y=np.array([0.5, 0.4]), X=np.column_stack([np.ones(2), [0.2, 0.6]]))
        est = _fake_fit([0.0, 0.0], np.eye(3), s)
        np.testing.assert_allclose(marginal_effects(s, est), 0.0)

    def test_matches_censored_mean_perturbation(self):
        rng = np.random.default_rng(20)
        s = simulate(rng, n=200, beta=(0.5, 0.3), sigma=0.2)
        est = fit(s)
        effects = marginal_effects(s, est)
        h = 1e-6
        for j in range(2):
            Xp, Xm = s.X.copy(), s.X.copy()
            Xp[:, j] += h
            Xm[:, j] -= h
            up = censored_mean(CensoredSample(y=s.y, X=Xp), est.beta, est.sigma).mean()
            dn = censored_mean(CensoredSample(y=s.y, X=Xm), est.beta, est.sigma).mean()
            assert effects[j] == pytest.approx((up - dn) / (2 * h), abs=1e-5)


class TestInferenceReport:
    def test_stars_thresholds(self):
        rng = np.random.default_rng(22)
        s = simulate(rng, n=400, beta=(0.5, 0.4), sigma=0.1)
        rep = inference_report(fit(s))
        assert rep.names == ("const", "x1")
        assert rep.wald.df == 1
        for p, star in zip(rep.p_values, rep.stars):
            if p < 0.01:
                assert star == "***"
            elif p < 0.05:
                assert star == "**"
            elif p < 0.1:
                assert star == "*"
            else:
                assert star == ""
        assert 0.0 <= rep.wald.p_value <= 1.0
        assert rep.lr.stat >= 0.0
