"""Symmetric base densities, the location-scale layer and shared numerics.

Everything downstream (skewing, transformation, two-piece scaling) starts
from a density that is symmetric about zero.  This module provides the
three stock bases (normal, Student t, logistic); Located, the one
location-scale layer every univariate law rides, which maps x to
z = (x - mu) / sigma and back, applies the scalar/array rule and checks the
sample size; MatrixParams, its k-variate counterpart in
y = Sigma^(-1/2)(x - mu); and the small numeric toolkit the rest of the
package leans on: adaptive quadrature batched over its ends, golden-section
maximization (public; no fit uses it), the laws' mode search (score_peak, the root of a score in
asinh x), seeded generators, and root finding.  One batched solver,
solve_increasing, inverts every increasing vectorized map: the skew laws'
cdf (through invert_cdf), the g-and-h and K H^(-1), and the H^(-1) of
twopiece.ScaleTransform.  find_root (scipy's brentq) serves the mode search.
"""
from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
HALF_PI = 0.5 * math.pi

NORMAL = "normal"
STUDENT_T = "student_t"
LOGISTIC = "logistic"

_BASE_KINDS = (NORMAL, STUDENT_T, LOGISTIC)


class NumericsError(RuntimeError):
    """A numeric routine failed to reach its requested accuracy."""


class IntegrationError(NumericsError):
    """Adaptive quadrature did not converge within its subdivision budget."""


class BracketError(NumericsError):
    """Root bracketing failed: no sign change over the supplied interval."""


def make_rng(seed: int) -> np.random.Generator:
    """Return a 64-bit seeded generator; equal seeds give equal streams."""
    return np.random.default_rng(int(seed))


def quantile_levels(p) -> np.ndarray:
    """p as a float array, after the quantile-domain rule every family follows.

    Levels 0 and 1 give the ends of the support (-inf and +inf where it is
    unbounded), a NaN level gives NaN, and a level outside [0, 1] raises.
    """
    q = np.asarray(p, dtype=float)
    if np.any((q < 0.0) | (q > 1.0)):
        raise ValueError("quantile levels must lie in [0, 1]")
    return q


def scalar_or_array(fn):
    """Let an array function of x (its first argument after self for a
    method) take a float too.

    fn receives x, which callers pass by position, as a float array of at
    least one dimension; a 0-d x gets a float back.  Whether fn is a method
    is settled here, at decoration, so a call costs one conversion and no
    inspection.
    """
    pos = 1 if next(iter(inspect.signature(fn).parameters)) == "self" else 0

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        x = np.asarray(args[pos], dtype=float)
        if x.ndim:
            return fn(*args[:pos], x, *args[pos + 1:], **kwargs)
        return float(fn(*args[:pos], x[None], *args[pos + 1:], **kwargs)[0])

    return wrapper


@dataclass(frozen=True)
class LocationScale:
    """Location and scale, sigma strictly positive."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")


@dataclass(frozen=True, eq=False)
class MatrixParams:
    """Location vector and symmetric positive definite scale matrix, and the
    one location-scale layer of the k-variate laws: one eigendecomposition
    gives the principal root Sigma^(1/2) (root), its inverse (root_inv) and
    log |Sigma|^(1/2) (half_log_det).  Equality is identity."""

    mu_vec: np.ndarray
    sigma_mat: np.ndarray
    root: np.ndarray = field(init=False, repr=False)
    root_inv: np.ndarray = field(init=False, repr=False)
    half_log_det: float = field(init=False, repr=False)

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu_vec, dtype=float))
        sig = np.asarray(self.sigma_mat, dtype=float)
        if sig.ndim != 2 or sig.shape[0] != sig.shape[1]:
            raise ValueError("sigma_mat must be a square matrix")
        if mu.shape[0] != sig.shape[0]:
            raise ValueError("mu_vec length must match sigma_mat dimension")
        if np.max(np.abs(sig - sig.T)) > 1e-12:
            raise ValueError("sigma_mat must be symmetric (tolerance 1e-12)")
        vals, vecs = np.linalg.eigh(sig)
        if np.min(vals) <= 0.0:
            raise ValueError("sigma_mat must be positive definite")
        scales = np.sqrt(vals)
        object.__setattr__(self, "mu_vec", mu)
        object.__setattr__(self, "sigma_mat", sig)
        object.__setattr__(self, "root", (vecs * scales) @ vecs.T)
        object.__setattr__(self, "root_inv", (vecs / scales) @ vecs.T)
        object.__setattr__(self, "half_log_det", float(np.log(scales).sum()))

    @property
    def k(self) -> int:
        return self.mu_vec.shape[0]

    def density(self, x, g):
        """|Sigma|^(-1/2) g(y) at y = Sigma^(-1/2)(x - mu), g mapping a stack
        (n, k) of y to their (n,) densities: a point x (k,) gives a float, a
        stack (n, k) an (n,) array.  y is a row sum, not a solve or a matrix
        product, so each point's bits are its own whatever the stack."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.k:
            raise ValueError(f"points must be {self.k}-vectors, got shape {x.shape}")
        diff = np.atleast_2d(x) - self.mu_vec
        out = g((diff[:, None, :] * self.root_inv).sum(axis=2)) * math.exp(-self.half_log_det)
        return float(out[0]) if x.ndim == 1 else out

    def locate(self, y) -> np.ndarray:
        """The points x = mu + Sigma^(1/2) y of a stack (n, k) of y."""
        return self.mu_vec + y @ self.root.T


class Located:
    """A law in x = mu + sigma z over a standard law in z.

    A law class gives its location and scale as self.loc, its
    moment_order_bound() and its standard law through the hooks _logf, _cdf
    and _quantile (array maps in z) and _draw(n, rng) (n standard draws).  A
    law whose mode is not mu also gives _mode_bracket, a bracket of its peak
    in a coordinate v of z, and _score(v), the slope in v of log f(z) at a
    one-element array of v; v is z itself unless _mode_z maps it to z.  mode
    takes the root of that score in asinh v (score_peak).  log_pdf, pdf, cdf
    and quantile take a float or an array of points or levels, and a float
    gives a float.
    """

    _mode_bracket = None

    @scalar_or_array
    def log_pdf(self, x):
        return self._logf((x - self.loc.mu) / self.loc.sigma) - math.log(self.loc.sigma)

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    @scalar_or_array
    def cdf(self, x):
        return self._cdf((x - self.loc.mu) / self.loc.sigma)

    @scalar_or_array
    def quantile(self, p):
        return self.loc.mu + self.loc.sigma * self._quantile(quantile_levels(p))

    def mode(self) -> float:
        bracket = self._mode_bracket
        if bracket is None:
            return self.loc.mu
        return self.loc.mu + self.loc.sigma * self._mode_z(score_peak(self._score, *bracket))

    @staticmethod
    def _mode_z(v):
        return v

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws, deterministic for a given generator."""
        if n < 0:
            raise ValueError("sample size must be nonnegative")
        return self.loc.mu + self.loc.sigma * self._draw(n, rng)


@dataclass(frozen=True)
class SymmetricBase(Located):
    """A univariate density symmetric about zero.

    kind is one of "normal", "student_t", "logistic"; nu is the degrees of
    freedom and only meaningful for the Student t.  Instances are the
    standard laws of the located ones and double as distribution objects in
    z (loc (0, 1)), so the shape measures can be evaluated on the bases
    directly.
    """

    kind: str = NORMAL
    nu: float = field(default=math.nan)
    loc = LocationScale()

    def __post_init__(self):
        if self.kind not in _BASE_KINDS:
            raise ValueError(f"unknown base kind {self.kind!r}")
        if self.kind == STUDENT_T:
            if not (np.isfinite(self.nu) and self.nu > 0.0):
                raise ValueError(f"student_t base needs nu > 0, got {self.nu}")
        elif not math.isnan(self.nu):
            raise ValueError(f"nu is only accepted for the student_t base")

    @property
    def log_density(self):
        """The kind's per-point log-density and the shapes it takes after z."""
        if self.kind == STUDENT_T:
            return t_logf, (self.nu,)
        return (normal_logf if self.kind == NORMAL else logistic_logf), ()

    def _logf(self, z):
        logf, shapes = self.log_density
        return logf(z, *shapes)

    def _cdf(self, z):
        if self.kind == NORMAL:
            return special.ndtr(z)
        if self.kind == LOGISTIC:
            return special.expit(z)
        nu = self.nu
        # z * z overflows to inf for |z| beyond 1e154, where w = 0 is the answer
        with np.errstate(over="ignore"):
            w = special.betainc(0.5 * nu, 0.5, nu / (nu + z * z))
        return np.where(z >= 0.0, 1.0 - 0.5 * w, 0.5 * w)

    def _log_cdf(self, z):
        if self.kind == NORMAL:
            return special.log_ndtr(z)
        if self.kind == LOGISTIC:
            return special.log_expit(z)
        return log_stdtr(self.nu, z)

    def _quantile(self, q):
        if self.kind == NORMAL:
            return special.ndtri(q)
        if self.kind == LOGISTIC:
            with np.errstate(divide="ignore"):
                return special.logit(q)
        nu = self.nu
        tail = np.where(q < 0.5, q, 1.0 - q)
        # Student t quantile through the inverse regularized beta.
        with np.errstate(divide="ignore"):
            w = special.betaincinv(0.5 * nu, 0.5, 2.0 * tail)
            mag = np.sqrt(nu * (1.0 - w) / np.where(w > 0.0, w, 1.0))
            mag = np.where(w == 0.0, np.inf, mag)
        out = np.where(q < 0.5, -mag, mag)
        return np.where(q == 0.5, 0.0, out)

    def moment_order_bound(self) -> float:
        """Moments of order >= this bound diverge (inf when all exist)."""
        if self.kind == STUDENT_T:
            return self.nu
        return math.inf

    def _draw(self, n, rng):
        """The Student t as Z / sqrt(V / nu) with V ~ chi^2_nu drawn first,
        the normal and the logistic by inverse transform."""
        if self.kind == STUDENT_T:
            v = rng.chisquare(self.nu, n)
            return rng.standard_normal(n) / np.sqrt(v / self.nu)
        u = rng.random(n)
        tiny = 1e-300
        np.clip(u, tiny, 1.0 - 1e-16, out=u)
        return self._quantile(u)


# ---------------------------------------------------------------------------
# Per-point log-densities at standardized z: log f(z), or given grad (one
# row mask per shape) its partials in z and each shape too.  A distribution
# passes float shapes; a fit, z (k, n) with (k, 1) columns of shapes and masks.


_NO_ROWS = np.zeros((1, 1), dtype=bool)


def z_score(logf, z, *shapes, **kwargs):
    """The partial in z of logf(z, *shapes) at a one-element array z, from
    its grad path: one row, asking for no shape's partial."""
    return logf(z, *shapes, grad=(_NO_ROWS,) * len(shapes), **kwargs)[1]


def log1p_square(z, nu=1.0):
    """log(1 + z^2 / nu) at array z, finite wherever z is: where z^2 / nu
    overflows it is 2 log|z| - log nu."""
    with np.errstate(over="ignore"):
        out = np.log1p(z * z / nu)
    if np.max(out, initial=0.0) == np.inf:
        far = np.isinf(out)
        out[far] = (2.0 * np.log(np.abs(np.broadcast_to(z, out.shape)[far]))
                    - np.log(np.broadcast_to(nu, out.shape)[far]))
    return out


def _log_t_norm(nu):
    """log Gamma((nu + 1) / 2) - log Gamma(nu / 2) - log(nu pi) / 2, the log of
    the Student t density's constant, at float or array nu.  From a = nu / 2 =
    20 on, where the two log-gammas of size a log a cancel, it is R(a) - log
    sqrt(2 pi) with the asymptotic series R(a) = sum over even n of (2^(1-n) -
    2) B_n / (n (n - 1) a^(n-1)) of log Gamma(a + 1/2) - log Gamma(a) - log(a) / 2."""
    nu = np.asarray(nu, dtype=float)
    a = 0.5 * nu
    near = a < 20.0
    if near.all():
        return special.gammaln(a + 0.5) - special.gammaln(a) - 0.5 * np.log(nu * math.pi)
    if near.any():  # each form on its own rows only
        out = np.empty(a.shape)
        out[near], out[~near] = _log_t_norm(nu[near]), _log_t_norm(nu[~near])
        return out
    b = 1.0 / (a * a)
    r = 1 / 192 + b * (-1 / 640 + b * (17 / 14336 + b * (-31 / 18432 + b * 691 / 180224)))
    return (b * r - 1 / 8) / a - LOG_SQRT_TWO_PI


def normal_logf(z, grad=None):
    # z * z overflows to inf for |z| beyond 1e154, where -inf is the answer
    with np.errstate(over="ignore"):
        val = -0.5 * z * z - LOG_SQRT_TWO_PI
    return val if grad is None else (val, -z)


def logistic_logf(z, grad=None):
    a = np.abs(z)
    val = -2.0 * np.log1p(np.exp(-a)) - a
    return val if grad is None else (val, np.tanh(-0.5 * z))


def t_logf(z, nu, grad=None):
    """The Student t with nu degrees of freedom.  The partials need z * z finite."""
    tail = log1p_square(z, nu)
    val = _log_t_norm(nu) - 0.5 * (nu + 1.0) * tail
    if grad is None:
        return val
    q = z * z
    nq = nu + q
    d_norm = 0.5 * (special.digamma(0.5 * (nu + 1.0)) - special.digamma(0.5 * nu) - 1.0 / nu)
    d_nu = d_norm - 0.5 * tail + 0.5 * (nu + 1.0) / nu * (q / nq)
    return val, -(nu + 1.0) * z / nq, d_nu


def normal_base() -> SymmetricBase:
    return SymmetricBase(NORMAL)


def student_base(nu: float) -> SymmetricBase:
    return SymmetricBase(STUDENT_T, float(nu))


def logistic_base() -> SymmetricBase:
    return SymmetricBase(LOGISTIC)


@dataclass(frozen=True)
class LocatedBase(Located):
    """A symmetric base shifted to mu and stretched by sigma."""

    base: SymmetricBase
    loc: LocationScale

    _logf = property(lambda self: self.base._logf)
    _cdf = property(lambda self: self.base._cdf)
    _quantile = property(lambda self: self.base._quantile)
    _draw = property(lambda self: self.base._draw)

    def moment_order_bound(self) -> float:
        return self.base.moment_order_bound()


def _spherical_t_pdf(y, nu: float):
    """The spherical Student t density at a stack (n, k) of points y,
    Gamma((nu+k)/2) / ((pi nu)^(k/2) Gamma(nu/2)) (1 + ||y||^2 / nu)^(-(nu+k)/2)."""
    if not (np.isfinite(nu) and nu > 0.0):
        raise ValueError(f"nu must be positive, got {nu}")
    k = y.shape[1]
    log_c = (special.gammaln(0.5 * (nu + k)) - special.gammaln(0.5 * nu)
             - 0.5 * k * math.log(math.pi * nu))
    return np.exp(log_c - 0.5 * (nu + k) * np.log1p((y * y).sum(axis=1) / nu))


def student_pdf_k(x, mp: MatrixParams, nu: float):
    """k-variate Student t density with location mu_vec and scale sigma_mat,
    at a point or a stack of points."""
    return mp.density(x, lambda y: _spherical_t_pdf(y, nu))


_TINY, _BIG = np.finfo(float).tiny, np.finfo(float).max


def log_stdtr(df, t):
    """log of the Student t CDF with df degrees of freedom, at array t.

    Where scipy's stdtr underflows below the smallest normal float (only in
    the far lower tail) the log comes from the series of the regularized
    incomplete beta, T(t) = I_x(p, 1/2) / 2 with x = df / (df + t^2) and
    p = df / 2:
        log T = p log x + log(1 - x) / 2 - log 2 - log p - log B(p, 1/2)
                + log 2F1(p + 1/2, 1; p + 1; x),
    so the result stays finite wherever the CDF is positive.
    """
    cdf = special.stdtr(df, t)
    with np.errstate(divide="ignore"):
        out = np.log(cdf)
        tail = cdf < _TINY
        if tail.any():
            k, a = (np.broadcast_to(v, cdf.shape)[tail] for v in (df, t))
            with np.errstate(over="ignore"):
                x = k / (k + a * a)
            # where t * t overflows, log x is log df - 2 log|t| to the last bit
            log_x = np.where(x > 0.0, np.log(x), np.log(k) - 2.0 * np.log(np.abs(a)))
            p = 0.5 * k
            out[tail] = (
                p * log_x + 0.5 * np.log1p(-x) - math.log(2.0) - np.log(p)
                - special.betaln(p, 0.5) + np.log(special.hyp2f1(p + 0.5, 1.0, p + 1.0, x))
            )
    return out


# ---------------------------------------------------------------------------
# Quadrature: adaptive Gauss-Kronrod 7-15, batched over panels and ends, with
# a tan substitution mapping infinite ranges onto finite ones.  Used as the
# integration oracle by the shape measures and by most normalization tests,
# and by the skew-symmetric laws' cdf.
# ---------------------------------------------------------------------------

# QUADPACK's qk15 rule, each constant the double nearest its 33-digit value
# (15-digit constants left every integral 3e-15 relative short): the
# Kronrod nodes from 1 down to 0 and their weights, and the Gauss-7 weights
# of Kronrod nodes 1, 3, 5 and 7
_NODES = np.array([0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
                   0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0])
_WEIGHTS = np.array([0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
                     0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
                     0.20443294007529889, 0.20948214108472782])
_GAUSS = np.array([0.1294849661688697, 0.27970539148927664, 0.3818300505051189,
                   0.4179591836734694])
_KRONROD_NODES = np.concatenate([-_NODES[:7], _NODES[::-1]])
_KRONROD_WEIGHTS = np.concatenate([_WEIGHTS[:7], _WEIGHTS[::-1]])
_GAUSS_WEIGHTS = np.concatenate([_GAUSS[:3], _GAUSS[::-1]])
_GAUSS_SLICE = slice(1, 14, 2)


def _gk_panels(f, lo, hi, c, mapped, args, owner):
    """Gauss-Kronrod 7-15 panels [lo, hi] in t, one per row, as one (5, n)
    array: lo, hi, integral, error estimate, integral of |f|.  A mapped end
    takes x = c + tan(t), and each panel's points take its end's (owner's)
    args.  Row sums, not a matrix product, so each panel's bits are its own
    whatever the batch."""
    half = 0.5 * (hi - lo)
    t = 0.5 * (lo + hi)[:, None] + half[:, None] * _KRONROD_NODES
    m = mapped[owner][:, None]
    s = np.tan(np.where(m, t, 0.0))
    x = np.where(m, c[owner][:, None] + s, t)
    at = np.repeat(owner, 15)
    fx = np.asarray(f(x.ravel(), *(a[..., at] for a in args)), dtype=float).reshape(x.shape)
    g = np.where(fx == 0.0, 0.0, fx * np.where(m, 1.0 + s * s, 1.0))
    k15 = half * (g * _KRONROD_WEIGHTS).sum(axis=1)
    g7 = half * (g[:, _GAUSS_SLICE] * _GAUSS_WEIGHTS).sum(axis=1)
    mass = half * (np.abs(g) * _KRONROD_WEIGHTS).sum(axis=1)
    return np.stack([lo, hi, k15, np.abs(k15 - g7), mass])


# the relative error at which integrate stops whatever its tol: the panels'
# rounding alone keeps a large integral's error estimate above an absolute
# tol once tol is below some ulps of the integral of |f|, however f cancels
_REL_FLOOR = 128.0 * np.finfo(float).eps


def integrate(f, a, b, tol=1e-10, max_intervals: int = 2000, args=()):
    """Adaptive Gauss-Kronrod 7-15 quadrature of f over [a, b], for a float
    or a 1-d array of ends a and b, each end to absolute tolerance tol (a
    float or one per end) or to _REL_FLOOR times its running integral of
    |f|, where that is larger.

    f(x, *args) maps a 1-d array of points to their values, with args (per
    end data along their last axis) given at each point's end.  Each round
    splits the panel of largest error estimate of every end still above its
    bound, and evaluates all the new panels in one call.  An end takes the
    steps it would take alone and sums its panels in a fixed order, so it
    keeps the bits of its own float call whatever the batch.  Infinite ends
    take x = c + tan(t), c the finite end or 0.  A float end gives a float.
    Raises IntegrationError when an end has max_intervals panels and its
    summed error estimate is still above its bound.
    """
    lo, hi = (np.atleast_1d(np.asarray(v, dtype=float)) for v in np.broadcast_arrays(a, b))
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise ValueError("integration endpoints must not be NaN")
    sign = np.where(lo > hi, -1.0, 1.0)
    # an end with a == b is one empty panel at 0
    lo, hi = (np.where(lo == hi, 0.0, v) for v in (np.minimum(lo, hi), np.maximum(lo, hi)))
    low, high = lo == -np.inf, hi == np.inf
    mapped, ends, args = low | high, np.arange(lo.size), tuple(np.asarray(v) for v in args)
    c = np.where(high, np.where(low, 0.0, lo), hi)
    t0 = np.where(low, -HALF_PI, np.where(high, 0.0, lo))
    t1 = np.where(high, HALF_PI, np.where(low, 0.0, hi))
    # each end's panels, slot by slot along the last axis; an empty slot has error -1
    panels = _gk_panels(f, t0, t1, c, mapped, args, ends)[:, :, None]
    count = np.ones(lo.size, dtype=np.intp)
    # each end's summed error estimate and integral of |f|
    err, mass = panels[3, :, 0].copy(), panels[4, :, 0].copy()
    while (rows := np.flatnonzero(err > (bound := np.maximum(tol, _REL_FLOOR * mass)))).size:
        if (full := rows[count[rows] >= max_intervals]).size:
            raise IntegrationError(f"quadrature stalled at error {err[full[0]]:.3e} > "
                                   f"{bound[full[0]]:.3e} after {count[full[0]]} intervals")
        slot = np.argmax(panels[3, rows], axis=1)
        old = panels[:, rows, slot]
        mid = 0.5 * (old[0] + old[1])
        if (small := rows[(mid <= old[0]) | (mid >= old[1])]).size:
            raise IntegrationError("interval too small to subdivide further; residual error "
                                   f"{err[small[0]]:.3e} > {bound[small[0]]:.3e}")
        if count[rows].max() == panels.shape[2]:
            empty = np.zeros_like(panels)
            empty[3] = -1.0
            panels = np.concatenate([panels, empty], axis=2)
        halves = _gk_panels(f, np.concatenate([old[0], mid]), np.concatenate([mid, old[1]]),
                            c, mapped, args, np.concatenate([rows, rows]))
        left, right = np.split(halves, 2, axis=1)
        # the left half takes the split panel's slot, the right half a new one
        panels[:, rows, slot], panels[:, rows, count[rows]] = left, right
        err[rows] += left[3] + right[3] - old[3]
        mass[rows] += left[4] + right[4] - old[4]
        count[rows] += 1
    # a sequential sum over each end's own slots, whatever the slots' number
    out = sign * np.cumsum(panels[2], axis=1)[ends, count - 1]
    return float(out[0]) if np.ndim(a) == 0 and np.ndim(b) == 0 else out


def find_root(g, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Bracketed root of g on [lo, hi]; requires a sign change."""
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    g_lo = g(lo)
    g_hi = g(hi)
    if g_lo == 0.0:
        return float(lo)
    if g_hi == 0.0:
        return float(hi)
    if g_lo * g_hi > 0.0:
        raise BracketError(
            f"no sign change over [{lo}, {hi}]: g(lo)={g_lo:.6g}, g(hi)={g_hi:.6g}")
    from scipy.optimize import brentq

    return float(brentq(g, lo, hi, xtol=tol, rtol=8.881784197001252e-16))


def golden_section_max(f, lo, hi, tol=1e-8, args=()):
    """Argmax of a unimodal f on [lo, hi] by golden-section search.

    lo, hi and tol may be arrays, one bracket per row, searched at once:
    f(x, *args) maps an array holding one point per row still searching to
    their values, with args (per-row data along their last axis) cut to
    those rows.  A row stops once its bracket is within its tol, or within
    four ulps of the larger end of its first bracket, since rounding keeps
    a finer tol from ever being met, and takes the steps it would take
    alone.  A float bracket gives a float; a bracket whose width hi - lo
    overflows raises ValueError.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.atleast_1d(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    with np.errstate(over="ignore"):
        if not np.isfinite(b - a).all():
            raise ValueError(f"bracket [{lo}, {hi}] is wider than the largest float")
    tol = np.maximum(tol, 4.0 * np.spacing(np.maximum(np.abs(a), np.abs(b))))
    step = invphi * (b - a)
    c, d = b - step, a + step
    fc, fd = f(c, *args), f(d, *args)
    argmax, rows = np.empty_like(a), np.arange(a.size)
    while rows.size:
        if not (live := (b - a) > tol).all():
            argmax[rows[~live]] = 0.5 * (a + b)[~live]
            rows, a, b, c, d, fc, fd, tol, *args = (
                v[..., live] for v in (rows, a, b, c, d, fc, fd, tol, *args))
            continue
        up = fc > fd  # keep [a, d] and move c in, else keep [c, b] and move d in
        a, b = np.where(up, a, c), np.where(up, d, b)
        step = invphi * (b - a)
        x = np.where(up, b - step, a + step)
        fx = f(x, *args)
        c, d = np.where(up, x, d), np.where(up, c, x)
        fc, fd = np.where(up, fx, fd), np.where(up, fc, fx)
    return float(argmax[0]) if np.ndim(lo) == 0 else argmax


def score_peak(score, lo: float, hi: float, tol: float = 1e-15) -> float:
    """The peak on [lo, hi] of a unimodal density: the root of its score
    (the slope of its log) in u = asinh x, by find_root to tol in u.

    score maps a one-element array of points to their scores.  A density
    that falls (rises) across the whole bracket gives lo (hi).  The root is
    taken of asinh of the score, whose slope in u varies far less than the
    score's, and each end's score is taken once.
    """
    def slope(u):
        return math.asinh(float(score(np.array([math.sinh(u)]))[0]))

    a, b = math.asinh(lo), math.asinh(hi)
    ends = {a: slope(a), b: slope(b)}
    if ends[a] < 0.0:
        return lo
    if ends[b] > 0.0:
        return hi
    return math.sinh(find_root(lambda u: ends[u] if u in ends else slope(u), a, b, tol))


# steps each target of solve_increasing may take
_INVERT_STEPS = 200


def midpoint(lo, hi):
    """The bisection point of brackets [lo, hi]: sign sqrt(lo hi) where both
    ends are finite, share a sign and differ by more than a factor of 2, so
    a bracket spanning orders of magnitude shrinks fast; (lo + hi) / 2 else."""
    with np.errstate(invalid="ignore", over="ignore"):
        a, b = np.abs(lo), np.abs(hi)
        wide = (np.sign(lo) == np.sign(hi)) & (np.maximum(a, b) > 2.0 * np.minimum(a, b))
        wide &= np.isfinite(lo) & np.isfinite(hi)
        return np.where(wide, np.sign(lo) * np.sqrt(a) * np.sqrt(b), 0.5 * (lo + hi))


def solve_increasing(fn, newton, target, x0: float, scale: float):
    """x with fn(x) = t for each t of a 1-d array target, fn increasing.

    fn maps an array of points to their values point by point, and
    newton(x, fn(x), t) gives the Newton step that x - step takes, so each
    target's iterates are its own.  Each starts at x0 with an unbounded
    bracket, which every evaluation narrows.  A step longer than the span
    (scale at first, times max(2, span / scale) on each such step) is cut
    to it, and one that leaves the bracket bisects it (see midpoint).  A
    target stops once its step or bracket is within four ulps of x (or of
    scale near zero) or fn hits it; a NaN fn value gives NaN, and a target
    still moving after _INVERT_STEPS steps raises NumericsError.
    """
    t = np.asarray(target, dtype=float)
    out, idx = np.empty_like(t), np.arange(t.size)
    x = np.full(t.shape, float(x0))
    lo, hi = np.full(t.shape, -np.inf), np.full(t.shape, np.inf)
    span = np.full(t.shape, float(scale))
    eps = 4.0 * np.finfo(float).eps
    for _ in range(_INVERT_STEPS):
        if not idx.size:
            return out
        f = fn(x)
        err = f - t
        lo, hi = np.where(err < 0.0, x, lo), np.where(err > 0.0, x, hi)
        # a far iterate's slope may overflow on its way to a finite value
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            step = newton(x, f, t)
        far = ~(np.abs(step) <= span)  # a NaN step counts as far
        step = np.where(far, np.copysign(span, err), step)
        with np.errstate(over="ignore", invalid="ignore"):
            # after k cuts the span is about 2^(2^k) scales, up to the largest float
            span = np.where(far, np.minimum(span * np.maximum(2.0, span / scale), _BIG), span)
            new = x - step
            # a step moves toward the root's side, so a step that leaves the
            # bracket meets its finite end, and one below an ulp leaves x as is
            cut = ~((lo < new) & (new < hi) | (new == x))
        if cut.any():
            new[cut] = midpoint(lo[cut], hi[cut])
        ulps = eps * np.maximum(np.abs(new), scale)
        stuck = np.isnan(err)
        # a step cut short to the span is no sign of convergence; a target
        # whose fn value is exact stops at x, also where its slope underflows
        settled = ~far & (np.abs(new - x) <= ulps)
        hit = err == 0.0
        done = stuck | hit | settled | (hi - lo <= ulps) | np.isinf(new)
        if done.any():
            out[idx[done]] = np.where(stuck, np.nan, np.where(hit, x, new))[done]
            idx, t, new, lo, hi, span = (v[~done] for v in (idx, t, new, lo, hi, span))
        x = new
    if idx.size:
        raise NumericsError(f"targets {t} did not converge in {_INVERT_STEPS} steps")
    return out


def invert_cdf(cdf, pdf, p, x0: float, scale: float):
    """Quantiles of a continuous law: cdf(x) = p by solve_increasing, cdf and
    pdf array maps.  Levels 0, 1 and NaN follow quantile_levels.  The Newton
    step solves log F(x) = log p for p <= 1/2, and log(1 - F(x)) = log(1 - p)
    above, so that a far tail level is reached in a few steps."""
    levels = quantile_levels(p)
    flat = levels.ravel()
    out = np.where(flat == 0.0, -np.inf, np.where(flat == 1.0, np.inf, np.nan))
    inside = (flat > 0.0) & (flat < 1.0)

    def newton(x, f, q):
        upper = q > 0.5
        tail, level = np.where(upper, 1.0 - f, f), np.where(upper, 1.0 - q, q)
        return np.where(upper, -tail, tail) * np.log(tail / level) / pdf(x)

    out[inside] = solve_increasing(cdf, newton, flat[inside], x0, scale)
    return out.reshape(levels.shape)
