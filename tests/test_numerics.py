import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from effx.numerics import (
    _BLOCK,
    NotPositiveDefinite,
    _erfcx,
    chi_square_sf,
    log_normal_cdf_and_mills,
    log_normal_pdf,
    normal_cdf,
    normal_pdf,
    solve_spd,
)
from oracles import (
    NonFiniteEvaluation,
    chi_square_sf_by_integration,
    fd_gradient,
    log_normal_cdf_mp,
    normal_cdf_by_integration,
    normal_cdf_mp,
)

moderate_floats = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)
wide_floats = st.floats(min_value=-40.0, max_value=40.0, allow_nan=False)


class TestNormalPdf:
    def test_at_zero(self):
        assert normal_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-9)

    def test_at_one(self):
        # frozen from exp(-0.5)/sqrt(2*pi) evaluated in extended precision
        assert normal_pdf(1.0) == pytest.approx(0.24197072451914337, abs=1e-9)

    @given(moderate_floats)
    def test_symmetry(self, z):
        assert normal_pdf(z) == normal_pdf(-z)

    def test_vectorized(self):
        z = np.array([-1.0, 0.0, 1.0])
        np.testing.assert_allclose(normal_pdf(z), [normal_pdf(v) for v in z])


class TestNormalCdf:
    def test_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_at_one_vs_integration_oracle(self):
        oracle = normal_cdf_by_integration(1.0)
        assert oracle == pytest.approx(0.8413447460685429, abs=1e-12)
        assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-9)

    def test_against_oracle_on_grid(self):
        for z in (-3.0, -1.5, -0.2, 0.7, 2.5, 4.0):
            assert normal_cdf(z) == pytest.approx(normal_cdf_by_integration(z), abs=1e-10)

    @given(wide_floats)
    def test_complement_is_exactly_one(self, z):
        assert normal_cdf(z) + normal_cdf(-z) == 1.0

    def test_monotone_on_grid(self):
        grid = np.linspace(-8, 8, 2001)
        vals = normal_cdf(grid)
        assert (np.diff(vals) >= 0.0).all()
        assert (vals >= 0.0).all() and (vals <= 1.0).all()

    def test_long_arrays_match_short_ones(self):
        z = np.random.default_rng(2).normal(0.0, 6.0, size=(3, _BLOCK + 7))
        short = np.concatenate([normal_cdf(part) for part in np.array_split(z.ravel(), 40)])
        np.testing.assert_array_equal(normal_cdf(z), short.reshape(z.shape))

    def test_accuracy_bound(self):
        for z in np.linspace(-8, 8, 33):
            assert abs(normal_cdf(float(z)) - normal_cdf_by_integration(float(z))) < 1e-12


class TestLogDomain:
    def test_log_pdf_matches(self):
        for z in (-5.0, 0.0, 3.0):
            assert log_normal_pdf(z) == pytest.approx(math.log(normal_pdf(z)), abs=1e-12)

    def test_log_cdf_matches_in_bulk(self):
        z = np.array([-5.0, -1.0, 0.0, 2.0])
        log_cdf, _ = log_normal_cdf_and_mills(z)
        np.testing.assert_allclose(log_cdf, np.log(normal_cdf(z)), rtol=1e-12)

    def test_deep_tail_stays_finite(self):
        val = float(log_normal_cdf_and_mills(np.array([-40.0]))[0][0])
        assert np.isfinite(val)
        # frozen from extended-precision evaluation of log Phi(-40)
        assert val == pytest.approx(-804.608442013754, rel=1e-10)


class TestSolveSpd:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(solve_spd(np.eye(3), b), b)

    def test_diagonal(self):
        np.testing.assert_allclose(solve_spd(np.array([[4.0]]), np.array([2.0])), [0.5])

    def test_random_spd_residuals(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            M = rng.normal(size=(5, 5))
            A = M.T @ M + np.eye(5)
            b = rng.normal(size=5)
            x = solve_spd(A, b)
            assert np.abs(A @ x - b).max() <= 1e-8 * (1.0 + np.abs(b).max())

    def test_matrix_rhs(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(4, 4))
        A = M.T @ M + np.eye(4)
        B = rng.normal(size=(4, 3))
        X = solve_spd(A, B)
        np.testing.assert_allclose(A @ X, B, atol=1e-8)

    def test_indefinite_raises(self):
        A = np.diag([1.0, -1.0])
        with pytest.raises(NotPositiveDefinite):
            solve_spd(A, np.ones(2))

    def test_asymmetric_raises(self):
        A = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            solve_spd(A, np.ones(2))


class TestFdGradient:
    def test_square(self):
        grad = fd_gradient(lambda v: float(v[0] ** 2), np.array([3.0]), h=1e-5)
        assert grad[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant(self):
        grad = fd_gradient(lambda v: 7.0, np.array([1.0, 2.0]))
        np.testing.assert_allclose(grad, 0.0)

    def test_non_finite_raises(self):
        with pytest.raises(NonFiniteEvaluation):
            fd_gradient(lambda v: float("nan"), np.array([0.0]))


class TestChiSquareSf:
    def test_at_zero(self):
        assert chi_square_sf(0.0, 3) == 1.0

    def test_frozen_df1_values(self):
        # frozen from direct integration of the df=1 density
        assert chi_square_sf_by_integration(3.841, 1) == pytest.approx(0.0500136837639567, abs=1e-12)
        assert chi_square_sf(3.841, 1) == pytest.approx(0.0500, abs=0.0005)
        assert chi_square_sf(4.0, 1) == pytest.approx(0.0455, abs=0.0005)

    def test_matches_integration_oracle(self):
        for df in (1, 2, 5, 10, 50):
            for x in (0.5, float(df), 2.0 * df):
                assert chi_square_sf(x, df) == pytest.approx(
                    chi_square_sf_by_integration(x, df), abs=1e-10
                )

    def test_decreasing_in_x(self):
        xs = np.linspace(0.0, 30.0, 50)
        vals = [chi_square_sf(float(x), 4) for x in xs]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_value_at_df_strictly_interior(self):
        for df in (1, 2, 7, 20, 50):
            v = chi_square_sf(float(df), df)
            assert 0.0 < v < 1.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            chi_square_sf(-1.0, 2)
        with pytest.raises(ValueError):
            chi_square_sf(1.0, 0)


class TestAgainstMpmath:
    """The numpy-only kernels against 50-digit mpmath references."""

    def test_erfcx_relative_error(self):
        rng = np.random.default_rng(0)
        x = np.concatenate(
            [[0.0], rng.uniform(0, 6, 400), rng.uniform(6, 60, 200), np.geomspace(60, 1e12, 200)]
        )
        with mpmath.workdps(50):
            ref = np.array([float(mpmath.exp(mpmath.mpf(v) ** 2) * mpmath.erfc(v)) for v in x])
        assert np.abs(_erfcx(x) / ref - 1.0).max() <= 2e-15
        assert _erfcx(np.array([np.inf]))[0] == 0.0

    def test_normal_cdf_absolute_error(self):
        z = np.concatenate([np.linspace(-40, 40, 1601), np.random.default_rng(1).uniform(-9, 9, 400)])
        with mpmath.workdps(50):
            ref = np.array([float(normal_cdf_mp(v)) for v in z])
        assert np.abs(normal_cdf(z) - ref).max() <= 1e-15

    def test_log_normal_cdf_relative_error(self):
        z = np.concatenate(
            [np.linspace(-1e3, 8, 1201), -np.geomspace(1e-12, 1e3, 200), np.geomspace(1e-12, 8, 100)]
        )
        with mpmath.workdps(50):
            ref = np.array([float(log_normal_cdf_mp(v)) for v in z])
        assert np.abs(log_normal_cdf_and_mills(z)[0] / ref - 1.0).max() <= 1e-13

    def test_mills_ratio_relative_error(self):
        z = np.concatenate([np.linspace(-1e3, 8, 1201), np.linspace(-3, 3, 121)])
        _, ratio = log_normal_cdf_and_mills(z)
        with mpmath.workdps(50):
            ref = np.array([float(mpmath.npdf(v) / normal_cdf_mp(v)) for v in z])
        assert np.abs(ratio / ref - 1.0).max() <= 1e-13

    def test_chi_square_sf_against_gammaincc(self):
        x = np.concatenate([np.linspace(0, 12, 49), np.linspace(12, 150, 70)])
        worst = 0.0
        with mpmath.workdps(50):
            for df in range(1, 31):
                for v in x:
                    # upper regularized gamma: the integral from x/2 to infinity
                    ref = mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(v) / 2, regularized=True)
                    worst = max(worst, abs(chi_square_sf(float(v), df) - float(ref)))
        assert worst <= 1e-13

    def test_nan_passes_through(self):
        assert math.isnan(normal_cdf(math.nan))
        assert np.isnan(_erfcx(np.array([np.nan]))).all()
        assert all(np.isnan(v).all() for v in log_normal_cdf_and_mills(np.array([np.nan])))
        assert math.isnan(chi_square_sf(math.nan, 1))
        assert math.isnan(chi_square_sf(math.nan, 4))

    def test_infinite_arguments(self):
        assert normal_cdf(-math.inf) == 0.0 and normal_cdf(math.inf) == 1.0
        assert chi_square_sf(math.inf, 1) == 0.0 and chi_square_sf(math.inf, 6) == 0.0
