"""Skew-symmetric families: symmetric base times a skewing factor.

Univariate densities take the form 2/sigma f(z) G(delta z) with
z = (x - mu)/sigma; the k-variate form is
2 |Sigma|^(-1/2) f(Sigma^(-1/2)(x - mu)) Pi(Sigma^(-1/2)(x - mu), delta).
The skew-t variant feeds an inflated argument into a t CDF with nu + k
degrees of freedom instead of a plain linear one.

The univariate skew-t CDF comes from its normal-chi^2 scale mixture
(_ScaleMixture), integrated on the smaller tail.  Against mpmath, its
absolute error is at most 1e-13, and the smaller tail keeps a relative
error of 1e-10 down to 1e-30 and of 1e-6 down to 1e-300.  It takes
1e-3 <= nu <= 1e8, where its table of F_SN stays below 9e5 nodes.  On an
array, one Kronrod panel per gap between sorted points adds to the
mixture's value at the smallest point, five times faster than the mixture
at every point.  Both skew families take their quantiles from one batched
Newton solve, base.invert_cdf.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

from .base import (
    LOG_SQRT_TWO_PI,
    LocationScale,
    MatrixParams,
    NumericsError,
    SymmetricBase,
    _GAUSS_SLICE,
    _GAUSS_WEIGHTS,
    _KRONROD_NODES,
    _KRONROD_WEIGHTS,
    golden_section_max,
    integrate,
    invert_cdf,
    log_stdtr,
    normal_base,
    scalar_or_array,
    student_base,
    student_pdf_k,
)

# absolute error bound of each Kronrod panel of the skew-t's array CDF
_CDF_TOL = 1e-10

# Gauss-Laguerre rule of the skew-normal CDF's lower tail
_LAGUERRE_NODES, _LAGUERRE_WEIGHTS = np.polynomial.laguerre.laggauss(40)
# the tail rule replaces Phi(z) - 2 T(z, delta) once that difference has
# cancelled below this fraction of Phi(z), where the log integrand bends
# slowly enough (curvature / slope^2 below _TAIL_BEND) for the rule
_TAIL_CANCEL = 1e-2
_TAIL_BEND = 0.35
# the skew-t's mixture rule keeps the scale density down to e^-_MIX_DROP of
# its peak, and tabulates log F_SN(-e^t) for t up to _MIX_T_MAX (|z| = 2981)
# but only while it stays above _MIX_LOG_FLOOR, where any term it gives lies
# far below the smallest CDF value the rule resolves (1e-300)
_MIX_DROP = 40.0
_MIX_T_MAX = 8.0
_MIX_LOG_FLOOR = -800.0
# the nu the rule takes; its table has 9e5 nodes at either end
_MIX_NU_MIN, _MIX_NU_MAX = 1e-3, 1e8
# nodes x points that _ScaleMixture sums at once
_MIX_BLOCK = 2 ** 20


def _sn_cdf(z, delta, log=False):
    """Skew-normal CDF F(z) = Phi(z) - 2 T(z, delta) at array z, or its log.

    Where z < 0 < delta that difference cancels.  There, once it has lost
    two digits, F = 2 int_{-inf}^z phi(t) Phi(delta t) dt comes from a
    40-node Gauss-Laguerre rule in log space, in t = z - u / lam with lam the
    log integrand's slope at z, so it keeps its relative accuracy down to
    the smallest floats.  Everywhere else the difference is returned as is.
    z may have any shape.
    """
    shape, z = z.shape, z.ravel()
    phi = special.ndtr(z)
    direct = phi - 2.0 * special.owens_t(z, delta)
    out = np.clip(direct, 0.0, 1.0)
    if log:
        with np.errstate(divide="ignore"):
            out = np.log(out)
    tail = np.flatnonzero((z < 0.0) & (direct < _TAIL_CANCEL * phi))
    if tail.size:
        log_pdf = SkewNormal(0.0, 1.0, delta).log_pdf
        zt = z[tail]
        x = delta * zt
        mills = np.exp(-0.5 * x * x - LOG_SQRT_TWO_PI - special.log_ndtr(x))
        lam = delta * mills - zt
        bend = (1.0 + delta * delta * mills * (x + mills)) / (lam * lam)
        ok = bend < _TAIL_BEND
        zt, lam, tail = zt[ok], lam[ok], tail[ok]
        with np.errstate(over="ignore", invalid="ignore"):
            top = log_pdf(zt)
            rest = (log_pdf(zt[:, None] - _LAGUERRE_NODES / lam[:, None])
                    - top[:, None] + _LAGUERRE_NODES)
            # a row sum, not a matrix product, so each point's bits are its own
            logf = top - np.log(lam) + np.log((np.exp(rest) * _LAGUERRE_WEIGHTS).sum(axis=1))
        logf[np.isnan(logf)] = -np.inf  # z so far out that t * t overflows
        out[tail] = logf if log else np.exp(logf)
    return out.reshape(shape)


def _drop_point(nu: float, r: float) -> float:
    """Where the log-gamma density g of r = log S drops e^-_MIX_DROP below
    its peak at r = 0, on the side of r.

    The drop nu r - (nu / 2) expm1(2 r) + _MIX_DROP is concave in r, so
    Newton's method from any r of the right sign reaches the root without
    crossing 0.
    """
    for _ in range(200):
        slope = -nu * math.expm1(2.0 * r)
        step = (nu * r - 0.5 * nu * math.expm1(2.0 * r) + _MIX_DROP) / slope
        r -= step
        if abs(step) <= 1e-9 * abs(r):
            return r
    raise NumericsError(f"no e^-{_MIX_DROP:g} point of the scale density at nu = {nu}")


def _log_gamma_peak(a: float) -> float:
    """log g(0) of the log-gamma density g(r) = 2 a^a e^(2 a r - a e^2r) / Gamma(a).

    That is log 2 - a + a log a - log Gamma(a); for a >= 20 the Stirling
    series of log Gamma(a) takes the place of the two large terms that
    cancel.
    """
    if a < 20.0:
        return math.log(2.0) - a + a * math.log(a) - special.gammaln(a)
    b = 1.0 / (a * a)
    series = (1 / 12 - b * (1 / 360 - b * (1 / 1260 - b * (1 / 1680 - b / 1188)))) / a
    return math.log(2.0) + 0.5 * math.log(a) - LOG_SQRT_TWO_PI - series


class _ScaleMixture:
    """The skew-t CDF from its normal-chi^2 scale mixture.

    Y = Z / S with Z ~ SN(delta) and S = sqrt(V / nu), V ~ chi^2_nu
    (Azzalini & Capitanio 2003), so F(y) = E[F_SN(y S)].  For y < 0 this is
    the integral over r = log S of F_SN(-e^(t)) g(r), t = log|y| + r, with
    g the log-gamma density of r.  It is taken by the trapezoid rule on the
    lattice t = k h, h = min(0.05, 0.5 / sqrt(nu)): log F_SN is tabulated
    once on that lattice (one table per sign of delta), from where F_SN
    equals F_SN(0) to where it drops below e^-800, so each point costs one
    log g per node and the nodes follow the integrand's peak wherever it
    sits.  A point is summed in log space, scaled by its largest term, over
    the whole table, which makes its value independent of the other points.
    For y > 0, F(y) = 1 - F(-y; -delta): the rule always integrates F_SN
    itself on the smaller tail, so no subtraction cancels.  The table has
    about 45 / h + _MIX_DROP / (h nu) nodes, hence the bounds on nu.
    """

    def __init__(self, nu: float, delta: float):
        if not _MIX_NU_MIN <= nu <= _MIX_NU_MAX:
            raise ValueError(f"the skew-t cdf takes {_MIX_NU_MIN:g} <= nu <= "
                             f"{_MIX_NU_MAX:g}, got {nu}")
        self.nu, self.delta = nu, delta
        self.h = min(0.05, 0.5 / math.sqrt(nu))
        self.log_g0 = _log_gamma_peak(0.5 * nu)
        lo = _drop_point(nu, -math.sqrt(_MIX_DROP / nu))
        hi = _drop_point(nu, 0.5 * math.log1p(2.0 * _MIX_DROP / nu))
        # below |z| = e^t_flat, F_SN(z) is F_SN(0) to 1e-17; so is F(y) for
        # |y| below self.flat, where every node has y S below it
        t_flat = -_MIX_DROP - math.log1p(2.0 * abs(delta))
        self.k_min = math.floor((t_flat - (hi - lo)) / self.h)
        self.flat = math.exp(t_flat - hi)
        self.tables = {}

    def _table(self, delta):
        # log F_SN(-e^t) at t = (k_min + j) h, j = 0, 1, ...
        if delta not in self.tables:
            t = np.arange(self.k_min, math.ceil(_MIX_T_MAX / self.h) + 1) * self.h
            log_f = _sn_cdf(-np.exp(t), delta, log=True)
            self.tables[delta] = log_f[:np.flatnonzero(log_f > _MIX_LOG_FLOOR)[-1] + 1]
        return self.tables[delta]

    def _lower(self, y, delta):
        # F(y; delta) at y < 0, a block of points at a time.  A node's r is
        # (k - m) h - f with log|y| = m h + f, so it carries no rounding of
        # t or log|y| at their size; log g(r) = log_g0 - (nu/2)(e^2r - 1 - 2r)
        log_f = self._table(delta)
        j = np.arange(log_f.size)
        out = np.empty_like(y)
        rows = max(1, _MIX_BLOCK // log_f.size)
        for i in range(0, y.size, rows):
            log_y = np.log(-y[i:i + rows])
            m = np.round(log_y / self.h)
            f = log_y - m * self.h
            r = (j + (self.k_min - m)[:, None]) * self.h - f[:, None]
            terms = log_f + self.log_g0 - 0.5 * self.nu * (np.expm1(2.0 * r) - 2.0 * r)
            top = terms.max(axis=1)
            out[i:i + rows] = self.h * np.exp(top) * np.exp(terms - top[:, None]).sum(axis=1)
        return out

    def cdf(self, z):
        """F at standardized points z, point by point."""
        out = np.where(z < 0.0, 0.0, np.where(z > 0.0, 1.0, np.nan))
        flat = np.abs(z) < self.flat
        out[flat] = 0.5 - math.atan(self.delta) / math.pi
        live = np.isfinite(z) & ~flat
        left, right = live & (z < 0.0), live & (z > 0.0)
        if left.any():
            out[left] = self._lower(z[left], self.delta)
        if right.any():
            out[right] = 1.0 - self._lower(-z[right], -self.delta)
        return out


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


@scalar_or_array
def skew_symmetric_pdf(x, p: SkewSymParams, pi: SkewingFunction):
    """Univariate skew-symmetric density 2/sigma f(z) Pi(z, delta)."""
    z = (x - p.loc.mu) / p.loc.sigma
    return 2.0 / p.loc.sigma * p.base.pdf(z) * pi.pi(z, p.delta)


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

    @scalar_or_array
    def log_pdf(self, x):
        from scipy.special import log_ndtr

        z = (x - self.mu) / self.sigma
        out = (math.log(2.0) - math.log(self.sigma)
               - 0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
               + log_ndtr(self.delta * z))
        # at z = +-inf, delta * z is NaN when delta = 0
        out[np.isinf(z)] = -np.inf
        return out

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    @scalar_or_array
    def cdf(self, x):
        return _sn_cdf((x - self.mu) / self.sigma, self.delta)

    @scalar_or_array
    def quantile(self, p):
        return invert_cdf(self.cdf, self.pdf, p, self.mu, self.sigma)

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

    @scalar_or_array
    def log_pdf(self, x):
        z = (x - self.mu) / self.sigma
        tb = student_base(self.nu)
        out = (math.log(2.0) - math.log(self.sigma) + tb.log_pdf(z)
               + log_stdtr(self.nu + 1.0, _skew_t_arg(z, self.nu, self.delta)))
        # at z = +-inf the skewing argument is inf * 0
        out[np.isinf(z)] = -np.inf
        return out

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    @cached_property
    def _mixture(self) -> _ScaleMixture:
        return _ScaleMixture(self.nu, self.delta)

    def _mixture_cdf(self, x):
        # point by point, for scalars, the panels' first point and quantiles
        return self._mixture.cdf((x - self.mu) / self.sigma)

    @scalar_or_array
    def cdf(self, xs):
        if xs.size == 1:
            return self._mixture_cdf(xs)
        # the limits at -inf and +inf; panels integrate the finite points
        out = np.where(xs > 0.0, 1.0, np.where(xs < 0.0, 0.0, np.nan))
        finite = np.isfinite(xs)
        if finite.any():
            out[finite] = self._cdf_sorted_panels(xs[finite])
        return out

    def _cdf_sorted_panels(self, xs: np.ndarray) -> np.ndarray:
        # the mixture at the smallest point, then one Kronrod panel per gap
        # between consecutive sorted points (vectorized); a panel whose
        # embedded Gauss estimate disagrees by more than the tolerance is
        # integrated adaptively instead
        order = np.argsort(xs, kind="stable")
        s = xs[order]
        first = self._mixture_cdf(s[:1])[0]
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
        out[order] = np.clip(cum, 0.0, 1.0)
        return out

    @scalar_or_array
    def quantile(self, p):
        return invert_cdf(self._mixture_cdf, self.pdf, p, self.mu, self.sigma)

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
    null, alt = infer.SKEW_NORMAL_PAIR
    normal_fit = infer.fit_mle(null, eps)
    sn_fit = infer.fit_mle(alt, eps)
    return SfaDemo(sample=eps, normal_fit=normal_fit, skew_normal_fit=sn_fit)
