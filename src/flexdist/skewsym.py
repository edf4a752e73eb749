"""Skew-symmetric families: symmetric base times a skewing factor.

Univariate densities take the form 2/sigma f(z) G(delta z) with
z = (x - mu)/sigma; the k-variate form is
2 |Sigma|^(-1/2) f(Sigma^(-1/2)(x - mu)) Pi(Sigma^(-1/2)(x - mu), delta).
The skew-t variant feeds an inflated argument into a t CDF with nu + k
degrees of freedom instead of a plain linear one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .base import (
    LocationScale,
    MatrixParams,
    SymmetricBase,
    _GAUSS_SLICE,
    _GAUSS_WEIGHTS,
    _KRONROD_NODES,
    _KRONROD_WEIGHTS,
    _maybe_scalar,
    golden_section_max,
    integrate,
    invert_cdf,
    log_stdtr,
    normal_base,
    quantile_levels,
    student_base,
    student_pdf_k,
)

# absolute error bound of the skew-t CDF's quadrature, per integral
_CDF_TOL = 1e-10


def _per_level(invert, p):
    """Apply a scalar quantile inversion to each level inside (0, 1).

    Levels 0, 1 and NaN follow base.quantile_levels; a float in gives a
    float out.
    """
    levels = quantile_levels(p)

    def one(q):
        if 0.0 < q < 1.0:
            return invert(q)
        return -math.inf if q == 0.0 else math.inf if q == 1.0 else math.nan

    if levels.ndim == 0:
        return one(float(levels))
    return np.array([one(float(q)) for q in levels.ravel()]).reshape(levels.shape)


@dataclass(frozen=True)
class SkewingFunction:
    """Pi(y, delta) = G(delta'y) for a symmetric univariate cdf G.

    Satisfies Pi(y, delta) + Pi(-y, delta) = 1 and Pi(y, 0) = 1/2.
    """

    base_cdf: SymmetricBase

    def pi(self, y, delta):
        y = np.asarray(y, dtype=float)
        delta = np.asarray(delta, dtype=float)
        if delta.ndim == 0:
            return self.base_cdf.cdf(delta * y)
        # vector case: y is one k-vector or a stack (n, k)
        return self.base_cdf.cdf(y @ delta)


def cdf_linear(base: SymmetricBase) -> SkewingFunction:
    return SkewingFunction(base)


@dataclass(frozen=True)
class SkewSymParams:
    base: SymmetricBase
    loc: LocationScale
    delta: float

    def __post_init__(self):
        if not np.isfinite(self.delta):
            raise ValueError("delta must be finite")


def skew_symmetric_pdf(x, p: SkewSymParams, pi: SkewingFunction):
    """Univariate skew-symmetric density 2/sigma f(z) Pi(z, delta)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    z = (np.atleast_1d(x) - p.loc.mu) / p.loc.sigma
    out = 2.0 / p.loc.sigma * p.base.pdf(z) * pi.pi(z, p.delta)
    return _maybe_scalar(out if not scalar else out[0], scalar)


def skew_symmetric_pdf_k(x, mp: MatrixParams, nu: float, delta, pi: SkewingFunction):
    """k-variate skew-symmetric density with a spherical t symmetric part."""
    x = np.asarray(x, dtype=float)
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    if x.shape != (mp.k,) or delta.shape != (mp.k,):
        raise ValueError("x and delta must be k-vectors matching mp")
    root = mp.sqrt_symmetric()
    y = np.linalg.solve(root, x - mp.mu_vec)
    det_factor = 1.0 / math.sqrt(np.linalg.det(mp.sigma_mat))
    f = student_pdf_k(y, MatrixParams(np.zeros(mp.k), np.eye(mp.k)), nu)
    return 2.0 * det_factor * f * float(pi.pi(y, delta))


def skew_normal_pdf(x, mu: float, sigma: float, delta: float):
    """Skew-normal density 2/sigma phi(z) Phi(delta z)."""
    return SkewNormal(mu, sigma, delta).pdf(x)


def _t_cdf(x, nu: float):
    return student_base(nu).cdf(x)


def _skew_t_arg(z, nu: float, delta: float):
    # argument of the skew-t's skewing factor T_{nu+1}(.)
    z = np.asarray(z, dtype=float)
    return delta * z * np.sqrt((nu + 1.0) / (z * z + nu))


def _skew_t_tilt(z, nu: float, delta: float):
    # univariate skewing factor of the skew-t: T_{nu+1}(delta z sqrt((nu+1)/(z^2+nu)))
    return _t_cdf(_skew_t_arg(z, nu, delta), nu + 1.0)


def skew_t_pdf(x, mp: MatrixParams, nu: float, delta):
    """k-variate skew-t density.

    2 t_{mu,Sigma,nu}(x; k) T_{0,1,nu+k}(delta' s^(-1) (x-mu) w) where
    s is the diagonal matrix with entries Sigma_ii^(1/2) and
    w = sqrt((nu+k) / (||Sigma^(-1/2)(x-mu)||^2 + nu)).
    """
    x = np.asarray(x, dtype=float)
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    k = mp.k
    if x.shape != (k,) or delta.shape != (k,):
        raise ValueError("x and delta must be k-vectors matching mp")
    if not (np.isfinite(nu) and nu > 0.0):
        raise ValueError(f"nu must be positive, got {nu}")
    diff = x - mp.mu_vec
    chol = mp.cholesky()
    y = np.linalg.solve(chol, diff)
    q = float(y @ y)
    s_inv = 1.0 / np.sqrt(np.diag(mp.sigma_mat))
    arg = float(delta @ (s_inv * diff)) * math.sqrt((nu + k) / (q + nu))
    return 2.0 * student_pdf_k(x, mp, nu) * float(_t_cdf(arg, nu + k))


def sample_skew_symmetric(n: int, p: SkewSymParams, pi: SkewingFunction,
                          rng: np.random.Generator) -> np.ndarray:
    """Sign-flip sampler: Z from the base, kept when U < Pi(Z, delta)."""
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    z = p.base.sample(n, rng)
    u = rng.random(n)
    keep = u < pi.pi(z, p.delta)
    return p.loc.mu + p.loc.sigma * np.where(keep, z, -z)


def _sample_spherical_t(n: int, k: int, nu: float, rng: np.random.Generator):
    g = rng.standard_normal((n, k))
    chi = rng.chisquare(nu, n)
    return g / np.sqrt(chi / nu)[:, None]


def sample_skew_symmetric_k(n: int, mp: MatrixParams, nu: float, delta,
                            pi: SkewingFunction,
                            rng: np.random.Generator) -> np.ndarray:
    """k-variate sign-flip sampler for the spherical-t skew-symmetric family."""
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    z = _sample_spherical_t(n, mp.k, nu, rng)
    u = rng.random(n)
    keep = u < np.atleast_1d(pi.pi(z, delta))
    signed = np.where(keep[:, None], z, -z)
    return mp.mu_vec + signed @ mp.sqrt_symmetric().T


def sample_skew_t_k(n: int, mp: MatrixParams, nu: float, delta,
                    rng: np.random.Generator) -> np.ndarray:
    """Sign-flip sampler matching skew_t_pdf for any dimension."""
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    k = mp.k
    root = mp.sqrt_symmetric()
    z = _sample_spherical_t(n, k, nu, rng)
    u = rng.random(n)
    diff = z @ root.T
    s_inv = 1.0 / np.sqrt(np.diag(mp.sigma_mat))
    q = np.sum(z * z, axis=1)
    arg = (diff * s_inv) @ delta * np.sqrt((nu + k) / (q + nu))
    keep = u < _t_cdf(arg, nu + k)
    signed = np.where(keep[:, None], diff, -diff)
    return mp.mu_vec + signed


@dataclass(frozen=True)
class SkewNormal:
    """Univariate skew-normal with location mu, scale sigma, skewness delta."""

    mu: float = 0.0
    sigma: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        LocationScale(self.mu, self.sigma)
        if not np.isfinite(self.delta):
            raise ValueError("delta must be finite")

    def log_pdf(self, x):
        from scipy.special import log_ndtr

        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        z = (np.atleast_1d(x) - self.mu) / self.sigma
        out = (math.log(2.0) - math.log(self.sigma)
               - 0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
               + log_ndtr(self.delta * z))
        return _maybe_scalar(out if not scalar else out[0], scalar)

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    def cdf(self, x):
        from scipy.special import ndtr, owens_t

        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        z = (np.atleast_1d(x) - self.mu) / self.sigma
        out = np.clip(ndtr(z) - 2.0 * owens_t(z, self.delta), 0.0, 1.0)
        return _maybe_scalar(out if not scalar else out[0], scalar)

    def quantile(self, p):
        return _per_level(
            lambda q: invert_cdf(self.cdf, q, self.mu - 3.0 * self.sigma,
                                 self.mu + 3.0 * self.sigma), p)

    def mode(self) -> float:
        return golden_section_max(self.log_pdf, self.mu - 10.0 * self.sigma,
                                  self.mu + 10.0 * self.sigma)

    def moment_order_bound(self) -> float:
        return math.inf

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        p = SkewSymParams(normal_base(), LocationScale(self.mu, self.sigma),
                          self.delta)
        return sample_skew_symmetric(n, p, cdf_linear(normal_base()), rng)


@dataclass(frozen=True)
class SkewT:
    """Univariate skew-t; the skewing factor uses nu+1 degrees of freedom."""

    mu: float = 0.0
    sigma: float = 1.0
    nu: float = 2.0
    delta: float = 0.0

    def __post_init__(self):
        LocationScale(self.mu, self.sigma)
        if not (np.isfinite(self.nu) and self.nu > 0.0):
            raise ValueError(f"nu must be positive, got {self.nu}")
        if not np.isfinite(self.delta):
            raise ValueError("delta must be finite")

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        z = (np.atleast_1d(x) - self.mu) / self.sigma
        tb = student_base(self.nu)
        out = (math.log(2.0) - math.log(self.sigma) + tb.log_pdf(z)
               + log_stdtr(self.nu + 1.0, _skew_t_arg(z, self.nu, self.delta)))
        return _maybe_scalar(out if not scalar else out[0], scalar)

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    @cached_property
    def _total_mass(self) -> float:
        # quadrature normalization cached per instance; analytically 1
        return integrate(self.pdf, -np.inf, np.inf, tol=_CDF_TOL)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xs = np.atleast_1d(x).astype(float)
        if xs.size == 1:
            out = np.array([self._cdf_scalar(xs[0])])
        else:
            # the limits at -inf and +inf; panels integrate the finite points
            out = np.where(xs > 0.0, 1.0, np.where(xs < 0.0, 0.0, np.nan))
            finite = np.isfinite(xs)
            if finite.any():
                out[finite] = self._cdf_sorted_panels(xs[finite])
        return _maybe_scalar(out if not scalar else out[0], scalar)

    def _cdf_scalar(self, x: float) -> float:
        if math.isnan(x):
            return math.nan
        if not np.isfinite(x):
            return 0.0 if x < 0 else 1.0
        val = integrate(self.pdf, -np.inf, x, tol=_CDF_TOL) / self._total_mass
        return min(max(val, 0.0), 1.0)

    def _cdf_sorted_panels(self, xs: np.ndarray) -> np.ndarray:
        # one adaptive pass for the left tail, then one Kronrod panel per gap
        # between consecutive sorted points (vectorized); a panel whose
        # embedded Gauss estimate disagrees by more than the tolerance is
        # integrated adaptively instead
        order = np.argsort(xs, kind="stable")
        s = xs[order]
        first = self._cdf_scalar(s[0]) * self._total_mass
        a, b = s[:-1], s[1:]
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        nodes = mid[:, None] + half[:, None] * _KRONROD_NODES[None, :]
        fx = self.pdf(nodes.ravel()).reshape(nodes.shape)
        inc = half * (fx @ _KRONROD_WEIGHTS)
        err = np.abs(inc - half * (fx[:, _GAUSS_SLICE] @ _GAUSS_WEIGHTS))
        for i in np.nonzero(err > _CDF_TOL)[0]:
            inc[i] = integrate(self.pdf, a[i], b[i], tol=_CDF_TOL)
        cum = np.empty_like(s)
        cum[0] = first
        np.cumsum(inc, out=cum[1:])
        cum[1:] += first
        out = np.empty_like(cum)
        out[order] = np.clip(cum / self._total_mass, 0.0, 1.0)
        return out

    def quantile(self, p):
        return _per_level(
            lambda q: invert_cdf(self._cdf_scalar, q, self.mu - 3.0 * self.sigma,
                                 self.mu + 3.0 * self.sigma), p)

    def mode(self) -> float:
        return golden_section_max(self.log_pdf, self.mu - 10.0 * self.sigma,
                                  self.mu + 10.0 * self.sigma)

    def moment_order_bound(self) -> float:
        return self.nu

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 0:
            raise ValueError("sample size must be nonnegative")
        z = student_base(self.nu).sample(n, rng)
        u = rng.random(n)
        keep = u < _skew_t_tilt(z, self.nu, self.delta)
        return self.mu + self.sigma * np.where(keep, z, -z)


@dataclass(frozen=True)
class SfaDemo:
    """Composite-error simulation output and the two competing fits."""

    sample: np.ndarray
    normal_fit: "object"
    skew_normal_fit: "object"

    @property
    def delta_hat(self) -> float:
        return self.skew_normal_fit.params["delta"]

    @property
    def lr_statistic(self) -> float:
        return max(2.0 * (self.skew_normal_fit.loglik - self.normal_fit.loglik), 0.0)


def sfa_composite_error_demo(n: int, sigma_v: float, sigma_u: float,
                             rng: np.random.Generator) -> SfaDemo:
    """Simulate eps = V - U (V normal, U half-normal) and fit both models.

    A positive inefficiency scale sigma_u drags the error left, so the
    fitted skew-normal delta comes out negative.
    """
    if sigma_v <= 0.0 or sigma_u <= 0.0:
        raise ValueError("sigma_v and sigma_u must be positive")
    from . import infer

    nb = normal_base()
    v = sigma_v * nb.sample(n, rng)
    u = sigma_u * np.abs(nb.sample(n, rng))
    eps = v - u
    normal_fit = infer.fit_mle("normal", eps)
    sn_fit = infer.fit_mle("skew_normal", eps)
    return SfaDemo(sample=eps, normal_fit=normal_fit, skew_normal_fit=sn_fit)
