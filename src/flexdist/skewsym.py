"""Skew-symmetric families: symmetric base times a skewing factor.

Univariate densities take the form 2/sigma f(z) G(delta z) with
z = (x - mu)/sigma; the k-variate form is 2 |Sigma|^(-1/2) t_k(y) Pi(y)
with y = Sigma^(-1/2)(x - mu), t_k the spherical t and the step from x to y
held by base.MatrixParams.  The skewing cdf G is that of a SymmetricBase,
passed where a density or sampler takes it; the k-variate Pi(y) = G(delta'y)
and the skew-t's Pi, which feeds an inflated argument into a t CDF with
nu + k degrees of freedom, are each built once and shared by the density and
the one sign-flip sampler, _sign_flip_k.

The univariate skew-t CDF sums, at each point, that point's window of its
normal-chi^2 scale mixture (_ScaleMixture) on the smaller tail.  Against
mpmath its absolute error is at most 1e-15, and the smaller tail keeps a
relative error of 1e-14 down to 1e-30 and of 5e-14 down to 1e-300.  It
takes 1e-3 <= nu <= 1e8.  SkewNormal, SkewT and SkewSymmetric (any base and
skewing cdf G) ride base.Located through _SkewSymmetricImage, as does
twopiece.ScaleTransformed: each gives its standard law in z, takes its
quantiles from one batched Newton solve, base.invert_cdf, draws by the one
sign flip, _sign_flip (the skew-t as a skew-normal over sqrt(V / nu)), and
takes its mode from the root of the score in z over [-10, 10].
SkewSymmetric's cdf is a batched quadrature of its smaller tail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

from .base import (
    LOG_SQRT_TWO_PI,
    Located,
    LocationScale,
    MatrixParams,
    NumericsError,
    SymmetricBase,
    integrate,
    invert_cdf,
    log_stdtr,
    normal_base,
    normal_logf,
    _spherical_t_pdf,
    student_base,
    t_logf,
    z_score,
)

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
_LOG_TWO = math.log(2.0)
# relative step of the forward difference of log T_k(a) in its degrees of
# freedom k at fixed a, the skew-t's one partial without a closed form
_DOF_STEP = 1e-7
# the nu the rule takes; its table has 9e5 nodes at either end
_MIX_NU_MIN, _MIX_NU_MAX = 1e-3, 1e8
# nodes x points that _ScaleMixture sums at once
_MIX_BLOCK = 2 ** 20
# _SkewSymmetricImage's cdf: the step of its difference quotient of log g,
# in units of max(1, |v|), and its quadrature's tolerance
_SLOPE_STEP = 1e-3
_CDF_ULPS = 16.0
_NORMAL = normal_base()


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
        zt = z[tail]
        x = delta * zt
        mills = np.exp(-0.5 * x * x - LOG_SQRT_TWO_PI - special.log_ndtr(x))
        lam = delta * mills - zt
        bend = (1.0 + delta * delta * mills * (x + mills)) / (lam * lam)
        ok = bend < _TAIL_BEND
        zt, lam, tail = zt[ok], lam[ok], tail[ok]
        with np.errstate(over="ignore", invalid="ignore"):
            top = skew_normal_logf(zt, delta)
            rest = (skew_normal_logf(zt[:, None] - _LAGUERRE_NODES / lam[:, None], delta)
                    - top[:, None] + _LAGUERRE_NODES)
            # a row sum, not a matrix product, so each point's bits are its own
            logf = top - np.log(lam) + np.log((np.exp(rest) * _LAGUERRE_WEIGHTS).sum(axis=1))
        logf[np.isnan(logf)] = -np.inf  # z so far out that t * t overflows
        out[tail] = logf if log else np.exp(logf)
    return out.reshape(shape)


def _drop_point(nu: float, r: float, drop: float = _MIX_DROP) -> float:
    """Where the log-gamma density g of r = log S drops e^-drop below its
    peak at r = 0, on the side of r.

    The drop nu r - (nu / 2) expm1(2 r) + drop is concave in r, so Newton's
    method from any r of the right sign reaches the root without crossing 0.
    """
    for _ in range(200):
        slope = -nu * math.expm1(2.0 * r)
        step = (nu * r - 0.5 * nu * math.expm1(2.0 * r) + drop) / slope
        r -= step
        if abs(step) <= 1e-9 * abs(r):
            return r
    raise NumericsError(f"no e^-{drop:g} point of the scale density at nu = {nu}")


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


def _expm1_minus(x, top=17):
    """e^x - 1 - x at array x, |x| < 1/2, from its Taylor series to x^top / top!:
    to a unit roundoff at top = 17, and below |x| = 0.05 at top = 10."""
    poly = 1.0 / math.factorial(top)
    for n in range(top - 1, 1, -1):
        poly = poly * x + 1.0 / math.factorial(n)
    return poly * x * x


class _ScaleMixture:
    """The skew-t CDF from its normal-chi^2 scale mixture.

    Y = Z / S with Z ~ SN(delta) and S = sqrt(V / nu), V ~ chi^2_nu
    (Azzalini & Capitanio 2003), so F(y) = E[F_SN(y S)].  For y < 0 this is
    the integral over r = log S of F_SN(-e^t) g(r), t = log|y| + r, with g
    the log-gamma density of r, taken by the trapezoid rule on the lattice
    t = k h, h = min(0.05, 0.5 / sqrt(nu)).  log F_SN is tabulated once per
    sign of delta, from where it is log F_SN(0) down to _MIX_LOG_FLOOR, on
    about 45 / h + _MIX_DROP / (h nu) nodes, hence the bounds on nu.  For
    y > 0, F(y) = 1 - F(-y; -delta): the rule always takes the smaller tail.
    A point sums the window of nodes where log g(r) >= log g(0) - D, with
    D = _MIX_DROP plus the fall of log F_SN from the table's first node to
    the point's node at r = 0 (to _MIX_LOG_FLOOR beyond the table), so a
    node left out lies e^-_MIX_DROP below g(0) times F_SN at r = 0.
    """

    def __init__(self, nu: float, delta: float):
        if not _MIX_NU_MIN <= nu <= _MIX_NU_MAX:
            raise ValueError(f"the skew-t cdf takes {_MIX_NU_MIN:g} <= nu <= "
                             f"{_MIX_NU_MAX:g}, got {nu}")
        self.nu, self.delta = nu, delta
        self.h = min(0.05, 0.5 / math.sqrt(nu))
        # log of the rule's weight h g(0)
        self.log_hg0 = math.log(self.h) + _log_gamma_peak(0.5 * nu)
        lo = _drop_point(nu, -math.sqrt(_MIX_DROP / nu))
        hi = _drop_point(nu, 0.5 * math.log1p(2.0 * _MIX_DROP / nu))
        # below |z| = e^t_flat, F_SN(z) is F_SN(0) to 1e-17; so is F(y) for
        # |y| below self.flat, where every node has y S below it
        t_flat = -_MIX_DROP - math.log1p(2.0 * abs(delta))
        self.k_min = math.floor((t_flat - (hi - lo)) / self.h)
        self.flat = math.exp(t_flat - hi)
        # log g(0) - log g(k h) and (nu/2) expm1(2 k h) at index k + zero,
        # for every k within the largest drop D of a point with finite log|y|
        drop = _MIX_DROP - _MIX_LOG_FLOOR
        top = math.ceil(math.log(np.finfo(float).max) / self.h) - self.k_min
        self.zero = min(math.ceil(-_drop_point(nu, -math.sqrt(drop / nu), drop) / self.h), top)
        k_pos = math.ceil(_drop_point(nu, 0.5 * math.log1p(2.0 * drop / nu), drop) / self.h)
        x = 2.0 * self.h * np.arange(-self.zero, k_pos + 2)
        self.q = 0.5 * nu * np.expm1(x)
        self.g = self.q - 0.5 * nu * x
        near = np.abs(x) < 0.5
        self.g[near] = 0.5 * nu * _expm1_minus(x[near])
        self.lattices = {}

    def _lattice(self, delta):
        # log F_SN(-e^t) at t = (k_min + j) h, and lo[i] <= k <= hi[i], the
        # window of a point whose node at r = 0 has j = i (i = n beyond it)
        if delta in self.lattices:
            return self.lattices[delta]
        t = np.arange(self.k_min, math.ceil(_MIX_T_MAX / self.h) + 1) * self.h
        log_f = _sn_cdf(-np.exp(t), delta, log=True)
        log_f = log_f[:np.flatnonzero(log_f > _MIX_LOG_FLOOR)[-1] + 1]
        drop = _MIX_DROP + log_f[0] - np.append(log_f, _MIX_LOG_FLOOR)
        # as |f| <= h / 2 below, node k < 0 is in a window of drop D when g
        # at k + 1 is <= D, and node k > 0 when g at k - 1 is
        lo = -np.minimum(np.searchsorted(self.g[self.zero::-1], drop, "right"), self.zero)
        hi = np.searchsorted(self.g[self.zero:-1], drop, "right")
        self.lattices[delta] = log_f, lo, hi
        return self.lattices[delta]

    def cdf(self, z):
        """F at standardized points z, point by point, summed over the points
        of one tail and one node at r = 0 at a time.  A node's r is k h - f,
        log|y| = m h + f, and log g(r) = log g(0) - g_k - q_k expm1(-2 f) -
        (nu/2)(e^-2f - 1 + 2 f) keeps its digits where r is near 0."""
        # 0 and 1 at -inf and +inf, NaN at NaN
        out = np.heaviside(z, np.nan)
        a = np.abs(z)
        out[a < self.flat] = 0.5 - math.atan(self.delta) / math.pi
        live = np.flatnonzero((a >= self.flat) & (a < np.inf))
        if not live.size:
            return out
        log_y = np.log(a.ravel()[live])
        m = np.rint(log_y / self.h)
        # sorted by the key 2 i + upper: the node at r = 0, then the tail
        key = 2 * (m - self.k_min).astype(np.intp) + (z.ravel()[live] > 0.0)
        order = np.argsort(key, kind="stable")
        live, log_y, m, key = live[order], log_y[order], m[order], key[order]
        x = 2.0 * (m * self.h - log_y)  # -2 f, at most h <= 0.05 in size
        b = np.expm1(x)
        c = np.exp(self.log_hg0 - 0.5 * self.nu * _expm1_minus(x, top=10))
        tail = np.zeros_like(x)
        bounds = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), key.size]
        for s0, s1 in zip(bounds, bounds[1:]):
            at, up = divmod(int(key[s0]), 2)
            log_f, lo, hi = self._lattice(-self.delta if up else self.delta)
            n = log_f.size
            j0 = max(at + int(lo[min(at, n)]), 0)
            j1 = min(at + int(hi[min(at, n)]) + 1, n)
            if j0 >= j1:
                continue  # every node lies e^-800 below 1
            ks = slice(j0 - at + self.zero, j1 - at + self.zero)
            # scaled by the largest term at f = 0, which f moves by |q_k b|
            base = log_f[j0:j1] - self.g[ks]
            peak = base.max()
            base -= peak
            step = max(1, _MIX_BLOCK // (j1 - j0))
            for p in range(s0, s1, step):
                rows = slice(p, min(p + step, s1))
                u = np.multiply.outer(b[rows], self.q[ks])
                np.subtract(base, u, out=u)
                tail[rows] = c[rows] * math.exp(peak) * np.exp(u, out=u).sum(axis=1)
        out.ravel()[live] = np.where(key % 2, 1.0 - tail, tail)
        return out


def _delta_k(delta, mp: MatrixParams) -> np.ndarray:
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    if delta.shape != (mp.k,):
        raise ValueError("delta must be a k-vector matching mp")
    return delta


def _linear_pi(skew: SymmetricBase, delta):
    """Pi(y) = G(delta'y) at a stack (n, k) of y, G the cdf of skew; a row
    sum, not a matrix product, so each point's bits are its own."""
    return lambda y: skew.cdf((y * delta).sum(axis=1))


def skew_symmetric_pdf_k(x, mp: MatrixParams, nu: float, delta, skew: SymmetricBase):
    """k-variate skew-symmetric density 2 |Sigma|^(-1/2) t_k(y) G(delta'y),
    G the cdf of skew, at a point or a stack of points."""
    pi = _linear_pi(skew, _delta_k(delta, mp))
    return mp.density(x, lambda y: 2.0 * _spherical_t_pdf(y, nu) * pi(y))


def _skew_t_arg(z, nu, delta):
    """The skewing argument a = delta z root, root = sqrt((nu + 1) / (z^2 +
    nu)), and z held within 1e150, where a is at its limit."""
    z = np.minimum(np.maximum(z, -1e150), 1e150)
    root = np.sqrt((nu + 1.0) / (z * z + nu))
    return delta * z * root, root, z


# the two skew-symmetric log-densities, in the form of base.normal_logf


def skew_normal_logf(z, delta, grad=None):
    """log 2 phi(z) Phi(delta z)."""
    s = delta * z
    log_cdf = special.log_ndtr(s)
    val = _LOG_TWO + normal_logf(z) + log_cdf
    # at z = +-inf, delta * z is NaN when delta = 0
    val[np.isinf(z)] = -np.inf
    if grad is None:
        return val
    # the Mills ratio phi(s) / Phi(s), taken through log_ndtr so it stays
    # finite where Phi(s) underflows
    mills = np.exp(-0.5 * s * s - LOG_SQRT_TWO_PI - log_cdf)
    return val, -z + delta * mills, z * mills


def skew_t_logf(z, nu, delta, grad=None):
    """log 2 t_nu(z) T_{nu+1}(a), a from _skew_t_arg.  The partial of log
    T_k(a) in k has no closed form: a forward difference, a second stdtr
    pass, taken on the rows of grad's nu mask alone, so the partial in nu
    holds there only."""
    a, root, zc = _skew_t_arg(z, nu, delta)
    k = nu + 1.0
    log_cdf = log_stdtr(k, a)
    if grad is None:
        return _LOG_TWO + t_logf(z, nu) + log_cdf
    t, t_dz, t_dnu = t_logf(z, nu, grad)
    val = _LOG_TWO + t + log_cdf
    # the slope of log T_k(a) in a, rho = t_k(a) / T_k(a)
    rho = np.exp(t_logf(a, k) - log_cdf)
    rows = grad[0][:, 0]
    d_k = np.zeros_like(a)
    if rows.any():
        k_l = k[rows]
        step = _DOF_STEP * k_l
        d_k[rows] = (log_stdtr(k_l + step, a[rows]) - log_cdf[rows]) / step
    q = zc * zc
    d_z = t_dz + rho * delta * root * nu / (q + nu)
    d_nu = t_dnu + (rho * a * (q - 1.0) / (2.0 * k * (q + nu)) + d_k)
    return val, d_z, d_nu, rho * zc * root


def _skew_t_pi(mp: MatrixParams, nu: float, delta):
    """The k-variate skew-t's skewing function in y = Sigma^(-1/2)(x - mu),
    T_{nu+k}(delta' s^(-1) (x - mu) w) with s the diagonal matrix of the
    Sigma_ii^(1/2) and w = sqrt((nu + k) / (||y||^2 + nu)); delta' s^(-1)
    (x - mu) is lam'y with lam = Sigma^(1/2) s^(-1) delta."""
    k = mp.k
    lam = mp.root @ (_delta_k(delta, mp) / np.sqrt(np.diag(mp.sigma_mat)))
    cdf = student_base(nu + k).cdf
    return lambda y: cdf((y * lam).sum(axis=1) * np.sqrt((nu + k) / ((y * y).sum(axis=1) + nu)))


def skew_t_pdf(x, mp: MatrixParams, nu: float, delta):
    """k-variate skew-t density 2 |Sigma|^(-1/2) t_k(y) Pi(y), Pi from
    _skew_t_pi, at a point or a stack of points."""
    pi = _skew_t_pi(mp, nu, delta)
    return mp.density(x, lambda y: 2.0 * _spherical_t_pdf(y, nu) * pi(y))


def _sign_flip_k(n: int, mp: MatrixParams, nu: float, pi, rng: np.random.Generator):
    """n draws of 2 |Sigma|^(-1/2) t_k(y) pi(y): a spherical t draw z, kept
    where a uniform falls below pi(z) and negated elsewhere, then located."""
    z = rng.standard_normal((n, mp.k)) / np.sqrt(rng.chisquare(nu, n) / nu)[:, None]
    keep = rng.random(n) < pi(z)
    return mp.locate(np.where(keep[:, None], z, -z))


def sample_skew_symmetric_k(n: int, mp: MatrixParams, nu: float, delta,
                            skew: SymmetricBase,
                            rng: np.random.Generator) -> np.ndarray:
    """k-variate sign-flip sampler matching skew_symmetric_pdf_k."""
    return _sign_flip_k(n, mp, nu, _linear_pi(skew, _delta_k(delta, mp)), rng)


def sample_skew_t_k(n: int, mp: MatrixParams, nu: float, delta,
                    rng: np.random.Generator) -> np.ndarray:
    """Sign-flip sampler matching skew_t_pdf for any dimension."""
    return _sign_flip_k(n, mp, nu, _skew_t_pi(mp, nu, delta), rng)


def _sign_flip(base: SymmetricBase, pi, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws of 2 f(z) pi(z), f the density of base and pi(z) + pi(-z) = 1:
    Z from base, kept where a uniform falls below pi(Z) and negated elsewhere."""
    z = base._draw(n, rng)
    return np.where(rng.random(n) < pi(z), z, -z)


class _SkewSymmetricImage(Located):
    """The law of z = H(W), H increasing (_forward, with _inverse its
    inverse) and W of density g(w) = 2 f(w) pi(w), f the density of
    self.base and pi(w) + pi(-w) = 1, given as _log_g and _pi; unless a
    subclass maps, H is the identity, log g is _logf and the mode is the
    root of the score in z over [-10, 10].  W draws by the sign flip, its
    quantiles are solved in w, and |W| has the law of |Z|, Z from the base."""

    _forward = _inverse = staticmethod(lambda v: v)
    _log_g = property(lambda self: self._logf)
    _mode_bracket = (-10.0, 10.0)

    def _w_cdf(self, w):
        """F_W at array w, each point its own bits: its smaller tail, F(v) for
        v <= 0 and 1 - F(v) above, integrated at x = v - d expm1(r), r >= 0,
        with 1 / |d| the slope of log g away from v (held at least 1 / max(1,
        |v|)) and the integrand e^r g(x) / g(v), 1 at r = 0, as in _sn_cdf's
        tail rule, so a far tail keeps its relative accuracy, to _CDF_ULPS
        ulps of |log g(v)|, the rounding of log g itself.  The map in r turns
        a power tail |x|^-(nu + 1) into the decay e^(-nu r), with no endpoint
        singularity for any nu > 0; x past the float range reads g = 0."""
        shape, w = w.shape, w.ravel()
        out = np.heaviside(w, np.nan)  # 0 and 1 at -inf and +inf, NaN at NaN
        live = np.flatnonzero(np.isfinite(w))
        v = w[live]
        top, wide, s = self._log_g(v), np.maximum(1.0, np.abs(v)), np.where(v > 0.0, -1.0, 1.0)
        out[live] = s < 0.0  # where g(v) max(1, |v|) < e^-800, the tail is 0 in floats
        live, v, top, wide, s = (a[top + np.log(wide) > -800.0] for a in (live, v, top, wide, s))
        step = _SLOPE_STEP * wide
        d = s / np.maximum((top - self._log_g(v - s * step)) / step, 1.0 / wide)

        def scaled_g(r, v, d, top):
            with np.errstate(over="ignore"):  # expm1 past the float range
                x = v - d * np.expm1(r)
            out, inside = np.zeros(r.shape), np.isfinite(x)
            out[inside] = np.exp(self._log_g(x[inside]) - top[inside] + r[inside])
            return out

        area = integrate(scaled_g, np.zeros(v.shape), np.full(v.shape, np.inf),
                         tol=_CDF_ULPS * np.finfo(float).eps * np.maximum(1.0, -top),
                         args=(v, d, top))
        tail = np.exp(top + np.log(np.abs(d) * area))
        out[live] = np.where(s < 0.0, 1.0 - tail, tail)
        return out.reshape(shape)

    def _cdf(self, z):
        return self._w_cdf(self._inverse(z))

    def _quantile(self, q):
        w = invert_cdf(self._w_cdf, lambda w: np.exp(self._log_g(w)), q, 0.0, 1.0)
        return self._forward(w)

    def _draw(self, n, rng):
        return self._forward(_sign_flip(self.base, self._pi, n, rng))


class _SkewLaw(_SkewSymmetricImage):
    """A skew law with mu and sigma fields, whose score is its kernel's."""

    def __post_init__(self):
        object.__setattr__(self, "loc", LocationScale(self.mu, self.sigma))


@dataclass(frozen=True)
class SkewSymmetric(_SkewSymmetricImage):
    """The skew-symmetric law 2/sigma f(z) G(delta z) at z = (x - mu) /
    sigma, f the density of base and G the cdf of skew."""

    base: SymmetricBase
    loc: LocationScale
    delta: float
    skew: SymmetricBase

    def __post_init__(self):
        if not np.isfinite(self.delta):
            raise ValueError("delta must be finite")

    def _logf(self, z):
        # log 2 + log G(delta z), summed first, is 0 at delta = 0, where the
        # sum is then log f(z) to the bit
        out = self.base._logf(z) + (_LOG_TWO + self.skew._log_cdf(self.delta * z))
        out[np.isinf(z)] = -np.inf  # where delta * z is NaN at delta = 0
        return out

    def _pi(self, z):
        return self.skew._cdf(self.delta * z)

    def _score(self, z):
        logf, shapes = self.base.log_density
        v = self.delta * z
        tilt = np.exp(self.skew._logf(v) - self.skew._log_cdf(v))
        return z_score(logf, z, *shapes) + self.delta * tilt


@dataclass(frozen=True)
class SkewNormal(_SkewLaw):
    """Univariate skew-normal with location mu, scale sigma, skewness delta."""

    mu: float = 0.0
    sigma: float = 1.0
    delta: float = 0.0
    base = _NORMAL

    def __post_init__(self):
        super().__post_init__()
        if not np.isfinite(self.delta):
            raise ValueError("delta must be finite")

    def _logf(self, z):
        return skew_normal_logf(z, self.delta)

    def _score(self, z):
        return z_score(skew_normal_logf, z, self.delta)

    def _w_cdf(self, z):
        return _sn_cdf(z, self.delta)

    def _pi(self, z):
        return _NORMAL._cdf(self.delta * z)


@dataclass(frozen=True)
class SkewT(_SkewLaw):
    """Univariate skew-t; the skewing factor uses nu+1 degrees of freedom."""

    mu: float = 0.0
    sigma: float = 1.0
    nu: float = 2.0
    delta: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not (np.isfinite(self.nu) and self.nu > 0.0):
            raise ValueError(f"nu must be positive, got {self.nu}")
        if not np.isfinite(self.delta):
            raise ValueError("delta must be finite")

    def _logf(self, z):
        return skew_t_logf(z, self.nu, self.delta)

    def _score(self, z):
        # no nu row, so no second stdtr pass
        return z_score(skew_t_logf, z, self.nu, self.delta)

    @cached_property
    def _mixture(self) -> _ScaleMixture:
        return _ScaleMixture(self.nu, self.delta)

    def _w_cdf(self, z):
        return self._mixture.cdf(z)

    def moment_order_bound(self) -> float:
        return self.nu

    def _draw(self, n, rng):
        """A skew-normal over sqrt(V / nu), V ~ chi^2_nu drawn first."""
        v = rng.chisquare(self.nu, n)
        return SkewNormal(delta=self.delta)._draw(n, rng) / np.sqrt(v / self.nu)
