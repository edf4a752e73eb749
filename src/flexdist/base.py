"""Symmetric base densities and shared numerics.

Everything downstream (skewing, transformation, two-piece scaling) starts
from a density that is symmetric about zero.  This module provides the
three stock bases (normal, Student t, logistic) together with the small
numeric toolkit the rest of the package leans on: adaptive quadrature,
bracketed root finding, golden-section maximization and seeded generators.
"""
from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

TWO_PI = 2.0 * math.pi
SQRT_TWO_PI = math.sqrt(TWO_PI)
LOG_SQRT_TWO_PI = 0.5 * math.log(TWO_PI)
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


class UnsupportedDensityError(ValueError):
    """The requested family has no closed-form density to evaluate."""


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


@dataclass(frozen=True)
class MatrixParams:
    """Location vector and symmetric positive definite scale matrix."""

    mu_vec: np.ndarray
    sigma_mat: np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu_vec, dtype=float))
        sig = np.asarray(self.sigma_mat, dtype=float)
        if sig.ndim != 2 or sig.shape[0] != sig.shape[1]:
            raise ValueError("sigma_mat must be a square matrix")
        if mu.shape[0] != sig.shape[0]:
            raise ValueError("mu_vec length must match sigma_mat dimension")
        if np.max(np.abs(sig - sig.T)) > 1e-12:
            raise ValueError("sigma_mat must be symmetric (tolerance 1e-12)")
        if np.min(np.linalg.eigvalsh(sig)) <= 0.0:
            raise ValueError("sigma_mat must be positive definite")
        object.__setattr__(self, "mu_vec", mu)
        object.__setattr__(self, "sigma_mat", sig)

    @property
    def k(self) -> int:
        return self.mu_vec.shape[0]

    def cholesky(self) -> np.ndarray:
        return np.linalg.cholesky(self.sigma_mat)

    def sqrt_symmetric(self) -> np.ndarray:
        """Principal (symmetric) square root of sigma_mat."""
        vals, vecs = np.linalg.eigh(self.sigma_mat)
        return (vecs * np.sqrt(vals)) @ vecs.T


@dataclass(frozen=True)
class SymmetricBase:
    """A univariate density symmetric about zero.

    kind is one of "normal", "student_t", "logistic"; nu is the degrees of
    freedom and only meaningful for the Student t.  Instances double as
    distribution objects (pdf/cdf/quantile/mode/sample) so the shape
    measures can be evaluated on the bases directly.
    """

    kind: str = NORMAL
    nu: float = field(default=math.nan)

    def __post_init__(self):
        if self.kind not in _BASE_KINDS:
            raise ValueError(f"unknown base kind {self.kind!r}")
        if self.kind == STUDENT_T:
            if not (np.isfinite(self.nu) and self.nu > 0.0):
                raise ValueError(f"student_t base needs nu > 0, got {self.nu}")
        elif not math.isnan(self.nu):
            raise ValueError(f"nu is only accepted for the student_t base")

    # ---- density -------------------------------------------------------

    @scalar_or_array
    def log_pdf(self, z):
        if self.kind == NORMAL:
            # z*z may overflow to inf for absurd inputs; -inf is the right answer
            with np.errstate(over="ignore"):
                out = -0.5 * z * z - LOG_SQRT_TWO_PI
        elif self.kind == STUDENT_T:
            nu = self.nu
            c = (special.gammaln(0.5 * (nu + 1.0)) - special.gammaln(0.5 * nu)
                 - 0.5 * math.log(nu * math.pi))
            out = c - 0.5 * (nu + 1.0) * np.log1p(z * z / nu)
        else:
            a = np.abs(z)
            out = -a - 2.0 * np.log1p(np.exp(-a))
        return out

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    # ---- cdf / quantile ------------------------------------------------

    @scalar_or_array
    def cdf(self, z):
        if self.kind == NORMAL:
            out = special.ndtr(z)
        elif self.kind == STUDENT_T:
            nu = self.nu
            w = special.betainc(0.5 * nu, 0.5, nu / (nu + z * z))
            out = np.where(z >= 0.0, 1.0 - 0.5 * w, 0.5 * w)
        else:
            out = special.expit(z)
        return out

    @scalar_or_array
    def quantile(self, q):
        q = quantile_levels(q)
        if self.kind == NORMAL:
            out = special.ndtri(q)
        elif self.kind == STUDENT_T:
            nu = self.nu
            tail = np.where(q < 0.5, q, 1.0 - q)
            # Student t quantile through the inverse regularized beta.
            with np.errstate(divide="ignore"):
                w = special.betaincinv(0.5 * nu, 0.5, 2.0 * tail)
                mag = np.sqrt(nu * (1.0 - w) / np.where(w > 0.0, w, 1.0))
                mag = np.where(w == 0.0, np.inf, mag)
            out = np.where(q < 0.5, -mag, mag)
            out = np.where(q == 0.5, 0.0, out)
        else:
            with np.errstate(divide="ignore"):
                out = special.logit(q)
        return out

    # ---- distribution interface ----------------------------------------

    def mode(self) -> float:
        return 0.0

    def moment_order_bound(self) -> float:
        """Moments of order >= this bound diverge (inf when all exist)."""
        if self.kind == STUDENT_T:
            return self.nu
        return math.inf

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-transform draws; deterministic for a given generator."""
        if n < 0:
            raise ValueError("sample size must be nonnegative")
        u = rng.random(n)
        tiny = 1e-300
        np.clip(u, tiny, 1.0 - 1e-16, out=u)
        return self.quantile(u)


def normal_base() -> SymmetricBase:
    return SymmetricBase(NORMAL)


def student_base(nu: float) -> SymmetricBase:
    return SymmetricBase(STUDENT_T, float(nu))


def logistic_base() -> SymmetricBase:
    return SymmetricBase(LOGISTIC)


@dataclass(frozen=True)
class LocatedBase:
    """A symmetric base shifted to mu and stretched by sigma."""

    base: SymmetricBase
    loc: LocationScale

    @scalar_or_array
    def log_pdf(self, x):
        z = (x - self.loc.mu) / self.loc.sigma
        return self.base.log_pdf(z) - math.log(self.loc.sigma)

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    @scalar_or_array
    def cdf(self, x):
        return self.base.cdf((x - self.loc.mu) / self.loc.sigma)

    def quantile(self, p):
        return self.loc.mu + self.loc.sigma * self.base.quantile(p)

    def mode(self) -> float:
        return self.loc.mu

    def moment_order_bound(self) -> float:
        return self.base.moment_order_bound()

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.loc.mu + self.loc.sigma * self.base.sample(n, rng)


@scalar_or_array
def normal_pdf(x, ls: LocationScale):
    """Normal density with location mu and scale sigma."""
    z = (x - ls.mu) / ls.sigma
    return np.exp(-0.5 * z * z) / (SQRT_TWO_PI * ls.sigma)


def student_pdf_k(x, mp: MatrixParams, nu: float):
    """k-variate Student t density with location mu_vec and scale sigma_mat.

    Evaluates
        Gamma((nu+k)/2) / ((pi nu)^(k/2) Gamma(nu/2)) |Sigma|^(-1/2)
            * (1 + ||Sigma^(-1/2)(x-mu)||^2 / nu)^(-(nu+k)/2)
    for a single point or a stack of points in the trailing axis layout
    (n, k).
    """
    if not (np.isfinite(nu) and nu > 0.0):
        raise ValueError(f"nu must be positive, got {nu}")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    k = mp.k
    if pts.shape[1] != k:
        raise ValueError(f"points have dimension {pts.shape[1]}, expected {k}")
    chol = mp.cholesky()
    diff = pts - mp.mu_vec
    y = np.linalg.solve(chol, diff.T)
    q = np.sum(y * y, axis=0)
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    log_c = (special.gammaln(0.5 * (nu + k)) - special.gammaln(0.5 * nu)
             - 0.5 * k * math.log(math.pi * nu) - 0.5 * log_det)
    out = np.exp(log_c - 0.5 * (nu + k) * np.log1p(q / nu))
    if single:
        return float(out[0])
    return out


_TINY = np.finfo(float).tiny


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
            x = k / (k + a * a)
            p = 0.5 * k
            out[tail] = (
                p * np.log(x) + 0.5 * np.log1p(-x) - math.log(2.0) - np.log(p)
                - special.betaln(p, 0.5) + np.log(special.hyp2f1(p + 0.5, 1.0, p + 1.0, x))
            )
    return out


# ---------------------------------------------------------------------------
# Quadrature: adaptive Gauss-Kronrod 7-15 with a tan substitution mapping
# infinite ranges onto finite ones.  Used as the integration oracle by the
# shape measures and by most normalization tests.
# ---------------------------------------------------------------------------

_KRONROD_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# Gauss-7 lives on Kronrod nodes 1, 3, 5, 7, 9, 11, 13.
_GAUSS_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_GAUSS_SLICE = slice(1, 14, 2)


def _gk_panel(f, a, b):
    """One Gauss-Kronrod 7-15 panel; returns (integral, error_estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.empty(15)
    for i in range(15):
        fx[i] = f(mid + half * _KRONROD_NODES[i])
    k15 = half * float(np.dot(_KRONROD_WEIGHTS, fx))
    g7 = half * float(np.dot(_GAUSS_WEIGHTS, fx[_GAUSS_SLICE]))
    return k15, abs(k15 - g7)


def _wrap_infinite(f, a, b):
    """Map f over (a, b) with infinite endpoints onto a finite t-interval."""
    neg_inf = math.isinf(a) and a < 0
    pos_inf = math.isinf(b) and b > 0
    if neg_inf and pos_inf:
        def g(t):
            x = math.tan(t)
            fx = f(x)
            if fx == 0.0:
                return 0.0
            return fx * (1.0 + x * x)
        return g, -HALF_PI, HALF_PI
    if pos_inf:
        def g(t):
            x = a + math.tan(t)
            fx = f(x)
            if fx == 0.0:
                return 0.0
            return fx * (1.0 + math.tan(t) ** 2)
        return g, 0.0, HALF_PI
    if neg_inf:
        def g(t):
            x = b + math.tan(t)
            fx = f(x)
            if fx == 0.0:
                return 0.0
            return fx * (1.0 + math.tan(t) ** 2)
        return g, -HALF_PI, 0.0
    return f, a, b


def integrate(f, a: float, b: float, tol: float = 1e-10,
              max_intervals: int = 2000) -> float:
    """Adaptive quadrature of f over [a, b] to absolute tolerance tol.

    Infinite endpoints are handled by the substitution x = tan(t).  Raises
    IntegrationError when the subdivision budget is exhausted before the
    summed error estimate drops below tol.
    """
    if math.isnan(a) or math.isnan(b):
        raise ValueError("integration endpoints must not be NaN")
    if a == b:
        return 0.0
    if a > b:
        return -integrate(f, b, a, tol=tol, max_intervals=max_intervals)
    g, lo, hi = _wrap_infinite(f, a, b)
    val, err = _gk_panel(g, lo, hi)
    pieces = [(err, lo, hi, val)]
    total_err = err
    while total_err > tol:
        if len(pieces) >= max_intervals:
            raise IntegrationError(
                f"quadrature stalled at error {total_err:.3e} > tol {tol:.3e} "
                f"after {len(pieces)} intervals")
        worst = max(range(len(pieces)), key=lambda i: pieces[i][0])
        e0, lo0, hi0, v0 = pieces.pop(worst)
        mid = 0.5 * (lo0 + hi0)
        if mid <= lo0 or mid >= hi0:
            raise IntegrationError(
                "interval too small to subdivide further; "
                f"residual error {total_err:.3e} > tol {tol:.3e}")
        v1, e1 = _gk_panel(g, lo0, mid)
        v2, e2 = _gk_panel(g, mid, hi0)
        pieces.append((e1, lo0, mid, v1))
        pieces.append((e2, mid, hi0, v2))
        total_err += e1 + e2 - e0
    return float(sum(p[3] for p in pieces))


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


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-8) -> float:
    """Argmax of a unimodal f on [lo, hi] by golden-section search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def invert_cdf(cdf, p: float, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Solve cdf(x) = p with automatic geometric bracket expansion."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {p}")
    # the bracket test, find_root's sign check and brentq's first calls all
    # evaluate the bracket ends
    cdf = functools.lru_cache(maxsize=None)(cdf)
    span = max(hi - lo, 1e-8)
    for _ in range(200):
        if cdf(lo) <= p <= cdf(hi):
            break
        if cdf(lo) > p:
            lo -= span
        if cdf(hi) < p:
            hi += span
        span *= 2.0
    else:
        raise BracketError(f"could not bracket quantile level {p}")
    return find_root(lambda x: cdf(x) - p, lo, hi, tol=tol)
