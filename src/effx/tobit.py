"""Two-limit censored (Tobit) regression by maximum likelihood.

The latent response is linear with normal errors; observations are clipped
to [lower, upper]. The likelihood mixes density terms for interior rows
with tail-probability terms for rows sitting on a limit. The interior rows
form a Gaussian regression, so they enter the likelihood, score and Hessian
through the sufficient statistics of one QR factorization of their design
rows, computed once per sample; only rows on a limit are evaluated one by
one at each point. Fitting uses Newton iterations with a backtracking line
search in (beta, log sigma), so the scale stays positive without
constraints. Inference offers both inverse-Hessian and sandwich
(heteroskedasticity-robust) covariances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .numerics import (
    NotPositiveDefinite,
    chi_square_sf,
    log_normal_cdf_and_mills,
    log_normal_pdf,
    normal_cdf,
    normal_pdf,
    solve_spd,
)

__all__ = [
    "CensorStatus",
    "CensoredSample",
    "FitOptions",
    "InferenceReport",
    "NoConvergence",
    "NonFinite",
    "NotIdentified",
    "PseudoR2",
    "SampleMismatch",
    "TestResult",
    "TobitFit",
    "censored_mean",
    "fit",
    "inference_report",
    "log_likelihood",
    "lr_test",
    "marginal_effects",
    "pseudo_r2",
    "robust_covariance",
    "score_and_hessian",
    "wald_test",
]

class NonFinite(Exception):
    """The likelihood or its derivatives evaluated to NaN or infinity."""


class NotIdentified(Exception):
    """Rank-deficient design, no interior observations, or no maximum."""


class NoConvergence(Exception):
    """Newton iterations exhausted without meeting the tolerances."""


class SampleMismatch(Exception):
    """Two fits being compared were not estimated on the same sample."""


class CensorStatus(IntEnum):
    INTERIOR = 0
    AT_LOWER = 1
    AT_UPPER = 2


class _RowSplit(NamedTuple):
    """A sample's rows as the likelihood reads them.

    The interior rows enter through a reduced QR X_in = Q R: with
    r = Q'y_in - R beta their residual sum of squares is floor + |r|^2,
    where floor = |y_in - Q Q'y_in|^2, so no O(N) pass and no
    y'y - 2 beta'X'y + beta'X'X beta cancellation. All three come from
    the R factor of [X_in y_in], so Q is never formed. A row on a limit
    contributes log Phi(sign * (x'beta - limit) / sigma).
    """

    interior: np.ndarray  # indices of the interior rows
    R: np.ndarray
    qy: np.ndarray  # Q'y_in
    floor: float
    gram: np.ndarray  # R'R = X_in'X_in
    rows: np.ndarray  # indices of the rows on a limit
    X_lim: np.ndarray
    sign: np.ndarray
    limit: np.ndarray


@dataclass(frozen=True)
class CensoredSample:
    """Observed responses in [lower, upper] with an N x k design matrix.

    By convention the first design column is an all-ones intercept.
    Rows exactly at a limit are treated as censored there. Both limits
    must be finite.
    """

    y: np.ndarray
    X: np.ndarray
    lower: float = 0.0
    upper: float = 1.0
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).copy()
        X = np.atleast_2d(np.asarray(self.X, dtype=float)).copy()
        if X.shape[0] != y.size:
            raise ValueError(f"X has {X.shape[0]} rows for {y.size} responses")
        if y.size < 1:
            raise ValueError("sample must contain at least one row")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("censor bounds must be finite")
        if not self.lower < self.upper:
            raise ValueError("lower censor bound must lie below upper")
        if not (np.isfinite(y).all() and np.isfinite(X).all()):
            raise ValueError("sample contains non-finite values")
        if (y < self.lower).any() or (y > self.upper).any():
            raise ValueError("responses must lie within [lower, upper]")
        y.setflags(write=False)
        X.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        if self.names is not None:
            names = tuple(self.names)
            if len(names) != X.shape[1]:
                raise ValueError("one name required per design column")
            object.__setattr__(self, "names", names)

    @property
    def n_obs(self) -> int:
        return self.y.size

    @property
    def k(self) -> int:
        return self.X.shape[1]

    @cached_property
    def censor_status(self) -> np.ndarray:
        status = np.full(self.n_obs, CensorStatus.INTERIOR, dtype=np.int8)
        status[self.y == self.lower] = CensorStatus.AT_LOWER
        status[self.y == self.upper] = CensorStatus.AT_UPPER
        status.setflags(write=False)
        return status

    @cached_property
    def _split(self) -> _RowSplit:
        interior = np.flatnonzero(self.censor_status == CensorStatus.INTERIOR)
        k = self.k
        if interior.size:
            Rxy = np.linalg.qr(np.column_stack((self.X[interior], self.y[interior])), mode="r")
        else:
            Rxy = np.zeros((0, k + 1))
        m = min(interior.size, k)
        R = Rxy[:m, :k]
        rows = np.flatnonzero(self.censor_status != CensorStatus.INTERIOR)
        at_upper = self.censor_status[rows] == CensorStatus.AT_UPPER
        return _RowSplit(
            interior=interior,
            R=R,
            qy=Rxy[:m, k],
            floor=float(Rxy[k, k] ** 2) if interior.size > k else 0.0,
            gram=R.T @ R,
            rows=rows,
            X_lim=self.X[rows],
            sign=np.where(at_upper, 1.0, -1.0),
            limit=np.where(at_upper, self.upper, self.lower),
        )

    def column_names(self) -> tuple[str, ...]:
        if self.names is not None:
            return self.names
        return ("const",) + tuple(f"x{i}" for i in range(1, self.k))


@dataclass(frozen=True)
class FitOptions:
    gradient_tol: float = 1e-8
    loglik_rel_tol: float = 1e-12
    max_iterations: int = 200


@dataclass
class TobitFit:
    """Maximum-likelihood estimate with both covariance flavors.

    Covariances are in (beta, log sigma) coordinates; the beta block is
    unaffected by the choice of scale coordinate.
    """

    beta: np.ndarray
    sigma: float
    loglik: float
    cov_hessian: np.ndarray
    cov_robust: np.ndarray
    iterations: int
    converged: bool
    sample: CensoredSample
    loglik_path: tuple[float, ...]
    halvings: int = 0  # line-search step halvings over all iterations

    @property
    def k(self) -> int:
        return self.beta.size


class TestResult(NamedTuple):
    stat: float
    df: int
    p_value: float


class PseudoR2(NamedTuple):
    value: float
    variant: str  # "mcfadden" or "squared_correlation"


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _terms(s: CensoredSample, beta: np.ndarray, sigma: float):
    """Per-row log likelihood and score multipliers in (beta, log sigma).

    Returns (ll_rows, s_b, s_t); a row's score is (s_b * x, s_t). A row on
    a limit has a = sign * (mean - limit) / sigma and likelihood Phi(a).
    """
    sp = s._split
    mean = s.X @ beta
    n = s.n_obs
    ll = np.empty(n)
    s_b = np.empty(n)
    s_t = np.empty(n)

    z = (s.y[sp.interior] - mean[sp.interior]) / sigma
    ll[sp.interior] = log_normal_pdf(z) - np.log(sigma)
    s_b[sp.interior] = z / sigma
    s_t[sp.interior] = z * z - 1.0

    if sp.rows.size:
        a = sp.sign * (mean[sp.rows] - sp.limit) / sigma
        log_cdf, ratio = log_normal_cdf_and_mills(a)  # ratio = phi/Phi
        ll[sp.rows] = log_cdf
        s_b[sp.rows] = sp.sign * ratio / sigma
        s_t[sp.rows] = -a * ratio

    return ll, s_b, s_t


def _point_terms(s: CensoredSample, beta: np.ndarray, sigma: float):
    """Log likelihood at (beta, sigma) and the pieces of it that the score
    and Hessian there reuse.

    The interior rows cost O(k^2) through their sufficient statistics
    (see _RowSplit): with tau = log sigma they add
    -n_in (tau + log(2 pi) / 2) - RSS / (2 sigma^2). Only the rows on a
    limit are evaluated one by one.
    """
    sp = s._split
    r = sp.qy - sp.R @ beta
    rss = sp.floor + float(r @ r)
    a = sp.sign * (sp.X_lim @ beta - sp.limit) / sigma
    log_cdf, ratio = log_normal_cdf_and_mills(a)  # ratio = phi/Phi
    ll = float(
        -sp.interior.size * (np.log(sigma) + _HALF_LOG_2PI)
        - rss / (2.0 * sigma * sigma)
        + log_cdf.sum()
    )
    return ll, (sigma, r, rss, a, ratio)


def log_likelihood(s: CensoredSample, beta: np.ndarray, sigma: float) -> float:
    """Censored-normal log likelihood, computed in the log domain."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    total = _point_terms(s, np.asarray(beta, dtype=float), sigma)[0]
    if not np.isfinite(total):
        raise NonFinite("log likelihood is not finite at this point")
    return total


def score_and_hessian(
    s: CensoredSample, beta: np.ndarray, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient and Hessian of the log likelihood with respect to
    (beta, log sigma)."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    return _score_and_hessian(s, _point_terms(s, np.asarray(beta, dtype=float), sigma)[1])


def _score_and_hessian(s: CensoredSample, terms) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian in (beta, log sigma) from the terms of one
    point (see _point_terms).

    Interior rows: d/dbeta = R'r / sigma^2, d/dtau = RSS / sigma^2 - n_in;
    Hessian blocks -R'R / sigma^2, -2 R'r / sigma^2 and -2 RSS / sigma^2.
    A row on a limit adds the derivatives of log Phi(a), whose second
    derivative in a is dratio = -a ratio - ratio^2.
    """
    sigma, r, rss, a, ratio = terms
    sp = s._split
    X_lim, sign = sp.X_lim, sp.sign
    k = s.k
    var = sigma * sigma
    dratio = -a * ratio - ratio * ratio
    rtr = sp.R.T @ r
    grad = np.empty(k + 1)
    grad[:k] = rtr / var + X_lim.T @ (sign * ratio / sigma)
    grad[k] = rss / var - sp.interior.size - float(a @ ratio)
    hess = np.empty((k + 1, k + 1))
    hess[:k, :k] = X_lim.T @ ((dratio / var)[:, None] * X_lim) - sp.gram / var
    hess[:k, k] = X_lim.T @ (-sign * (a * dratio + ratio) / sigma) - 2.0 * rtr / var
    hess[k, :k] = hess[:k, k]
    hess[k, k] = float(a @ ratio + (a * a) @ dratio) - 2.0 * rss / var
    if not (np.isfinite(grad).all() and np.isfinite(hess).all()):
        raise NonFinite("score or Hessian is not finite at this point")
    return grad, hess


def _row_scores(s: CensoredSample, beta: np.ndarray, sigma: float) -> np.ndarray:
    """N x (k+1) matrix of per-row score contributions at (beta, log sigma)."""
    _, s_b, s_t = _terms(s, beta, sigma)
    return np.hstack([s_b[:, None] * s.X, s_t[:, None]])


def _safe_terms(s: CensoredSample, psi: np.ndarray):
    """Log likelihood (-inf where not finite or sigma^2 underflows) and
    point terms at psi = (beta, log sigma)."""
    sigma = float(np.exp(psi[-1]))
    if sigma * sigma == 0.0:
        return -np.inf, None
    total, terms = _point_terms(s, psi[:-1], sigma)
    return (total if np.isfinite(total) else -np.inf), terms


def _no_optimum(s: CensoredSample, beta: np.ndarray, detail: str) -> Exception:
    """NotIdentified for a fit stopped at beta if sigma collapses there,
    else NoConvergence. Sigma collapses when some beta fits the interior
    rows exactly, to rounding, and every row on a limit lies on its side
    of that limit: the likelihood then grows like -n_in log sigma as
    sigma -> 0. Newton steps only creep towards that beta, so the test
    moves beta onto the nearest exact fit first."""
    sp = s._split
    beta = beta + np.linalg.lstsq(sp.R, sp.qy - sp.R @ beta, rcond=None)[0]
    r = sp.qy - sp.R @ beta
    resolution = 64.0 * np.finfo(float).eps * max(1.0, float(np.abs(s.y[sp.interior]).max()))
    exact = sp.floor + float(r @ r) <= sp.interior.size * resolution**2
    if exact and (sp.sign * (sp.X_lim @ beta - sp.limit) >= 0.0).all():
        return NotIdentified(
            "sigma collapses to 0: a hyperplane fits the interior rows exactly and the rows "
            "on a limit agree with it, so the likelihood has no maximum"
        )
    return NoConvergence(detail)


def fit(s: CensoredSample, opts: FitOptions = FitOptions()) -> TobitFit:
    """Maximize the censored likelihood by Newton with backtracking.

    Starts from least squares on all rows. Accepted steps never decrease
    the log likelihood; convergence requires a small gradient and a
    stagnating log likelihood.
    """
    X, y = s.X, s.y
    k = s.k
    # lstsq's rank counts singular values above eps * max(N, k) * s_max,
    # the cutoff of np.linalg.matrix_rank.
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < k:
        raise NotIdentified("design matrix is rank deficient")
    if not (s.censor_status == CensorStatus.INTERIOR).any():
        raise NotIdentified("all rows are censored; the scale is not identified")

    resid = y - X @ beta
    sigma0 = float(np.sqrt(np.mean(resid**2)))
    tau = np.log(max(sigma0, 1e-8))
    psi = np.append(beta, tau)

    # Each point's terms give its log likelihood and then, once the point
    # is accepted, the next step's score and Hessian; the Hessian of the
    # last step is the one at the optimum.
    ll, terms = _safe_terms(s, psi)
    if not np.isfinite(ll):
        raise NonFinite("log likelihood not finite at the starting point")
    path = [ll]
    rel_change: float | None = None
    iterations = 0
    halvings = 0

    for iterations in range(1, opts.max_iterations + 1):
        grad, hess = _score_and_hessian(s, terms)
        del terms  # the line search holds one point's terms at a time
        gnorm = float(np.abs(grad).max())
        if gnorm < opts.gradient_tol and (rel_change is None or rel_change < opts.loglik_rel_tol):
            iterations -= 1
            break
        try:
            direction = solve_spd(-hess, grad)
        except NotPositiveDefinite:
            direction = grad / max(1.0, float(np.linalg.norm(grad)))
        slope = float(grad @ direction)
        if slope <= 0.0:
            direction = grad / max(1.0, float(np.linalg.norm(grad)))
            slope = float(grad @ direction)

        # Sub-noise slack keeps Armijo from rejecting full Newton steps
        # whose true gain sits below the resolution of the summed loglik;
        # those steps are what drive the gradient to the tolerance.
        noise = 1e-13 * (1.0 + abs(ll))
        step = 1.0
        accepted = False
        while step > 1e-14:
            cand = psi + step * direction
            ll_new, terms = _safe_terms(s, cand)
            if ll_new >= ll + 1e-4 * step * slope - noise:
                accepted = True
                break
            step *= 0.5
            halvings += 1
        if not accepted:
            if gnorm < 10.0 * opts.gradient_tol:
                break
            raise _no_optimum(s, psi[:k], "line search stalled away from the optimum")
        psi = cand
        rel_change = abs(ll_new - ll) / (1.0 + abs(ll))
        ll = ll_new
        path.append(ll)
    else:
        raise _no_optimum(s, psi[:k], f"no optimum after {opts.max_iterations} iterations")

    beta = psi[:k]
    sigma = float(np.exp(psi[k]))
    cov_hessian = solve_spd(-hess, np.eye(k + 1))
    cov_hessian = 0.5 * (cov_hessian + cov_hessian.T)

    result = TobitFit(
        beta=beta,
        sigma=sigma,
        loglik=ll,
        cov_hessian=cov_hessian,
        cov_robust=np.empty((k + 1, k + 1)),
        iterations=iterations,
        converged=True,
        sample=s,
        loglik_path=tuple(path),
        halvings=halvings,
    )
    result.cov_robust = robust_covariance(s, result)
    return result


def robust_covariance(s: CensoredSample, estimate: TobitFit) -> np.ndarray:
    """White sandwich: Hinv (sum of g_i g_i') Hinv at the optimum, with
    Hinv the estimate's inverse-Hessian covariance."""
    G = _row_scores(s, estimate.beta, estimate.sigma)
    hinv = estimate.cov_hessian
    cov = hinv @ (G.T @ G) @ hinv
    return 0.5 * (cov + cov.T)


def wald_test(estimate: TobitFit) -> TestResult:
    """All-slopes-zero Wald test with the robust covariance.

    The intercept (first column) is excluded, so df = k - 1.
    """
    k = estimate.k
    if k < 2:
        raise ValueError("the Wald test needs at least one slope")
    b = estimate.beta[1:]
    V = estimate.cov_robust[1:k, 1:k]
    stat = float(b @ solve_spd(V, b))
    stat = max(stat, 0.0)
    return TestResult(stat=stat, df=k - 1, p_value=chi_square_sf(stat, k - 1))


def _same_sample(a: CensoredSample, b: CensoredSample) -> bool:
    return (
        a.n_obs == b.n_obs
        and a.lower == b.lower
        and a.upper == b.upper
        and np.array_equal(a.y, b.y)
    )


def _nested_design(full: CensoredSample, reduced: CensoredSample) -> bool:
    for col in reduced.X.T:
        if not any(np.abs(col - fcol).max() <= 1e-12 for fcol in full.X.T):
            return False
    return True


def lr_test(full: TobitFit, reduced: TobitFit) -> TestResult:
    """Likelihood-ratio test of nested fits on the same sample."""
    if not _same_sample(full.sample, reduced.sample):
        raise SampleMismatch("fits were estimated on different samples")
    if reduced.k > full.k or not _nested_design(full.sample, reduced.sample):
        raise SampleMismatch("reduced model is not nested in the full model")
    stat = max(0.0, 2.0 * (full.loglik - reduced.loglik))
    df = full.k - reduced.k
    p = 1.0 if df == 0 else chi_square_sf(stat, df)
    return TestResult(stat=stat, df=df, p_value=p)


def pseudo_r2(full: TobitFit, null: TobitFit) -> PseudoR2:
    """Goodness-of-fit surrogate against the intercept-only fit.

    McFadden's 1 - ll_full / ll_null applies when the null log likelihood
    is negative; continuous densities can push it non-negative, in which
    case the squared correlation between y and fitted E[y|x] is reported
    instead, with the variant named in the result.
    """
    if null.k != 1:
        raise ValueError("null must be the intercept-only fit")
    if not _same_sample(full.sample, null.sample):
        raise SampleMismatch("fits were estimated on different samples")
    if null.loglik < 0.0:
        return PseudoR2(value=1.0 - full.loglik / null.loglik, variant="mcfadden")
    fitted = censored_mean(full.sample, full.beta, full.sigma)
    y = full.sample.y
    vy = float(np.var(y))
    vf = float(np.var(fitted))
    if vy <= 0.0 or vf <= 0.0:
        return PseudoR2(value=0.0, variant="squared_correlation")
    corr = float(np.corrcoef(y, fitted)[0, 1])
    return PseudoR2(value=corr * corr, variant="squared_correlation")


def censored_mean(s: CensoredSample, beta: np.ndarray, sigma: float) -> np.ndarray:
    """Model-implied E[y | x] accounting for both censor limits."""
    mean = s.X @ np.asarray(beta, dtype=float)
    alpha = (s.lower - mean) / sigma
    omega = (s.upper - mean) / sigma
    p_lo = normal_cdf(alpha)
    p_hi = normal_cdf(omega)
    return (
        s.lower * p_lo
        + s.upper * (1.0 - p_hi)
        + (p_hi - p_lo) * mean
        + sigma * (normal_pdf(alpha) - normal_pdf(omega))
    )


def marginal_effects(s: CensoredSample, estimate: TobitFit) -> np.ndarray:
    """Average effect of each regressor on the censored mean:
    beta_j times the mean probability of landing strictly inside the
    limits."""
    mean = s.X @ estimate.beta
    p_hi, p_lo = normal_cdf((np.array([[s.upper], [s.lower]]) - mean) / estimate.sigma)
    return estimate.beta * float(np.mean(p_hi - p_lo))


_STAR_LEVELS = ((0.01, "***"), (0.05, "**"), (0.1, "*"))


def _stars(p: float) -> str:
    for threshold, marker in _STAR_LEVELS:
        if p < threshold:
            return marker
    return ""


@dataclass(frozen=True)
class InferenceReport:
    """Per-coefficient robust inference plus whole-model statistics."""

    names: tuple[str, ...]
    estimates: np.ndarray
    robust_se: np.ndarray
    z_stats: np.ndarray
    p_values: np.ndarray
    stars: tuple[str, ...]
    wald: TestResult
    lr: TestResult
    pseudo_r2: PseudoR2
    marginal_effects: np.ndarray
    loglik: float
    sigma: float
    n_obs: int


def inference_report(estimate: TobitFit, null: TobitFit | None = None) -> InferenceReport:
    """Assemble the reporting bundle: robust z tests with significance
    stars at 0.1 / 0.05 / 0.01, the all-slopes Wald test, the likelihood
    ratio against the intercept-only fit, and average marginal effects."""
    s = estimate.sample
    if null is None:
        null_sample = CensoredSample(
            y=s.y, X=np.ones((s.n_obs, 1)), lower=s.lower, upper=s.upper, names=("const",)
        )
        null = fit(null_sample)
    k = estimate.k
    se = np.sqrt(np.clip(np.diag(estimate.cov_robust)[:k], 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0.0, estimate.beta / se, np.inf * np.sign(estimate.beta))
    p = 2.0 * normal_cdf(-np.abs(z))
    return InferenceReport(
        names=s.column_names(),
        estimates=estimate.beta.copy(),
        robust_se=se,
        z_stats=z,
        p_values=p,
        stars=tuple(_stars(pv) for pv in p),
        wald=wald_test(estimate),
        lr=lr_test(estimate, null),
        pseudo_r2=pseudo_r2(estimate, null),
        marginal_effects=marginal_effects(s, estimate),
        loglik=estimate.loglik,
        sigma=estimate.sigma,
        n_obs=s.n_obs,
    )
