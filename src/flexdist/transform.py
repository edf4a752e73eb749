"""Transformation families: Y = H^(-1)(X) for X drawn from a symmetric base.

Three transformations are supported, and each has a density
sigma^(-1) f(H(z)) H'(z).  The sinh-arcsinh map has closed forms in both
directions.  The Tukey g-and-h and the K tail map only define H^(-1)
analytically: their H is solved numerically, and log H'(z) = -log
(H^(-1))'(H(z)) comes from the closed-form slope of H^(-1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import (
    Density,
    LocationScale,
    MatrixParams,
    SymmetricBase,
    golden_section_max,
    log1p_square,
    midpoint,
    normal_logf,
    quantile_levels,
    scalar_or_array,
    student_pdf_k,
)

GH_SMALL_G = 1e-8  # below this |g| the analytic g -> 0 limit branch is used

_BIG = np.finfo(float).max


@scalar_or_array
def sas_forward(x, delta: float, eta: float):
    """H(x) = sinh(eta * arcsinh(x) + delta); strictly increasing for eta > 0."""
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    return np.sinh(eta * np.arcsinh(x) + delta)


@scalar_or_array
def sas_inverse(x, delta: float, eta: float):
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    return np.sinh((np.arcsinh(x) - delta) / eta)


def _sas_log_jacobian(u, x, eta):
    # log eta + log cosh u - log(1 + x^2) / 2 at u = eta arcsinh(x) + delta
    au = np.abs(u)
    return np.log(eta) + (au + np.log1p(np.exp(-2.0 * au)) - math.log(2.0)) - 0.5 * log1p_square(x)


@scalar_or_array
def sas_log_jacobian(x, delta: float, eta: float):
    """log H'(x) with H'(x) = eta cosh(eta arcsinh(x) + delta) / sqrt(1+x^2)."""
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    return _sas_log_jacobian(eta * np.arcsinh(x) + delta, x, eta)


def sas_logf(z, delta, eta, *shapes, base=normal_logf, grad=None):
    """log f(H(z)) + log H'(z) for the sinh-arcsinh map H and the base
    log-density f (normal unless given, its shapes after delta and eta), in
    the form of base.normal_logf; the partials are in z, delta, eta and the
    base's shapes."""
    asinh_z = np.arcsinh(z)
    u = eta * asinh_z + delta
    y = np.sinh(u)
    f = base(y, *shapes, grad=None if grad is None else grad[2:])
    f, dy, *d_base = (f, None) if grad is None else f
    val = f + _sas_log_jacobian(u, z, eta)
    # at z = +-inf the log jacobian is inf - inf
    val[np.isinf(z)] = -np.inf
    if grad is None:
        return val
    # the partial in u: y = sinh u and log cosh u both move with it
    du = dy * np.cosh(u) + np.tanh(u)
    r2 = 1.0 + z * z
    return (val, du * eta / np.sqrt(r2) - z / r2, du, du * asinh_z + 1.0 / eta,
            *d_base)


@scalar_or_array
def gh_inverse(x, g: float, h: float):
    """Tukey's H^(-1)(x) = (1/g)(exp(gx) - 1) exp(hx^2/2), limit x exp(hx^2/2) at g=0."""
    if h < 0.0:
        raise ValueError(f"h must be nonnegative, got {h}")
    with np.errstate(over="ignore"):
        tail = np.exp(0.5 * h * x * x)
        if abs(g) < GH_SMALL_G:
            return x * tail
        return np.expm1(g * x) / g * tail


@scalar_or_array
def k_inverse(x, eta: float):
    """H^(-1)(x) = x (1+x^2)^eta; odd, increasing, pure tail inflation."""
    if eta < 0.0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    with np.errstate(over="ignore"):
        return x * np.power(1.0 + x * x, eta)


def _monotone_solve(inverse_fn, target, lo0=-60.0, hi0=60.0, iters=90):
    """Vectorized bisection for inverse_fn(z) = target, inverse_fn increasing.

    A target of +-inf maps to +-inf and a NaN target to NaN; neither is
    bracketed, so the finite targets' bits do not depend on them.  A target
    at or beyond the supremum (infimum) of inverse_fn, where a bounded map
    ends, maps to +inf (-inf).  The bracket widens by doubling, and after 60
    doublings to the largest float, whence it is bisected at base.midpoint,
    geometrically while it spans orders of magnitude.  The bisection stops
    once no bracket moves.
    """
    target = np.atleast_1d(np.asarray(target, dtype=float))
    top, bottom = inverse_fn(np.array([_BIG, -_BIG]))
    above, below = target >= top, target <= bottom
    finite = np.isfinite(target) & ~above & ~below
    t = np.where(finite, target, 0.0)
    lo = np.full_like(t, lo0)
    hi = np.full_like(t, hi0)
    for i in range(61):
        bad_lo = inverse_fn(lo) > t
        bad_hi = inverse_fn(hi) < t
        if not (bad_lo.any() or bad_hi.any()):
            break
        # an end that falls short of its target bounds the root on the other side
        lo, hi = (np.where(bad_hi, hi, np.where(bad_lo, -_BIG if i == 60 else 2.0 * lo, lo)),
                  np.where(bad_lo, lo, np.where(bad_hi, _BIG if i == 60 else 2.0 * hi, hi)))
    far = bool(np.any(np.abs(lo) == _BIG) or np.any(hi == _BIG))
    for _ in range(iters):
        mid = midpoint(lo, hi) if far else 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        below_t = inverse_fn(mid) < t
        lo = np.where(below_t, mid, lo)
        hi = np.where(below_t, hi, mid)
    out = np.where(finite, 0.5 * (lo + hi), target)
    return np.where(above, np.inf, np.where(below, -np.inf, out))


@dataclass(frozen=True)
class SasTransform:
    """Sinh-arcsinh: delta skews, eta reweights the tails."""

    delta: float
    eta: float

    def __post_init__(self):
        if not (np.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not np.isfinite(self.delta):
            raise ValueError("delta must be finite")

    def forward(self, x):
        return sas_forward(x, self.delta, self.eta)

    def inverse(self, x):
        return sas_inverse(x, self.delta, self.eta)

    def log_jacobian(self, x):
        return sas_log_jacobian(x, self.delta, self.eta)

    def logf(self, z, base: SymmetricBase):
        logf, shapes = base.log_density
        return sas_logf(z, self.delta, self.eta, *shapes, base=logf)


class _InverseOnly:
    """A map whose H^(-1) and log slope are closed form: H is solved, and
    log H'(z) = -log (H^(-1))'(H(z))."""

    @scalar_or_array
    def forward(self, x):
        return _monotone_solve(self.inverse, x)

    @scalar_or_array
    def log_jacobian(self, x):
        return -self.log_inverse_slope(self.forward(x))

    def logf(self, z, base: SymmetricBase):
        y = self.forward(z)
        out = base.log_pdf(y) - self.log_inverse_slope(y)
        # H is +-inf at z = +-inf and beyond the end of a bounded support
        out[np.isinf(y)] = -np.inf
        return out


@dataclass(frozen=True)
class GhTransform(_InverseOnly):
    """Tukey g-and-h: g skews, h >= 0 inflates both tails."""

    g: float
    h: float

    def __post_init__(self):
        if not (np.isfinite(self.h) and self.h >= 0.0):
            raise ValueError(f"h must be nonnegative, got {self.h}")
        if not np.isfinite(self.g):
            raise ValueError("g must be finite")

    def inverse(self, x):
        return gh_inverse(x, self.g, self.h)

    def log_inverse_slope(self, y):
        """log (H^(-1))'(y) = h y^2 / 2 + log(e^v + h y (e^v - 1) / g), v = g y,
        both terms >= 0; in the limit g -> 0, h y^2 / 2 + log1p(h y^2)."""
        g, h = self.g, self.h
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_y = np.log(np.abs(y))
            v = 0.0 if abs(g) < GH_SMALL_G else g * y
            # log of y (e^v - 1) / g, from log |e^v - 1|; y^2 in the limit
            log_b = (2.0 * log_y if abs(g) < GH_SMALL_G else log_y - math.log(abs(g))
                     + np.maximum(v, 0.0) + np.log(-np.expm1(-np.abs(v))))
            log_h = math.log(h) if h > 0.0 else -math.inf
            return 0.5 * h * y * y + np.logaddexp(v, log_h + log_b)

    def moment_order_bound(self) -> float:
        # E exp(r h Z^2 / 2) diverges from r h = 1 on
        return 1.0 / self.h if self.h > 0.0 else math.inf


@dataclass(frozen=True)
class KTransform(_InverseOnly):
    """K tail transformation, eta >= 0."""

    eta: float

    def __post_init__(self):
        if not (np.isfinite(self.eta) and self.eta >= 0.0):
            raise ValueError(f"eta must be nonnegative, got {self.eta}")

    def inverse(self, x):
        return k_inverse(x, self.eta)

    def log_inverse_slope(self, y):
        """log (H^(-1))'(y) = (eta - 1) log1p(y^2) + log1p((1 + 2 eta) y^2)."""
        return ((self.eta - 1.0) * log1p_square(y)
                + log1p_square(y, 1.0 / (1.0 + 2.0 * self.eta)))


@dataclass(frozen=True)
class TransformParams(Density):
    """Base draw pushed through mu + sigma * H^(-1)(.)."""

    base: SymmetricBase
    loc: LocationScale
    tr: "SasTransform | GhTransform | KTransform"

    # -- distribution interface -------------------------------------------

    @scalar_or_array
    def log_pdf(self, x):
        z = (x - self.loc.mu) / self.loc.sigma
        return self.tr.logf(z, self.base) - math.log(self.loc.sigma)

    @scalar_or_array
    def cdf(self, x):
        return self.base.cdf(self.tr.forward((x - self.loc.mu) / self.loc.sigma))

    def quantile(self, p):
        return transform_quantile(p, self)

    def mode(self) -> float:
        return golden_section_max(self.log_pdf, self.loc.mu - 10.0 * self.loc.sigma,
                                  self.loc.mu + 10.0 * self.loc.sigma)

    def moment_order_bound(self) -> float:
        bound = getattr(self.tr, "moment_order_bound", None)
        return min(self.base.moment_order_bound(), bound() if bound else math.inf)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return sample_transform(n, self, rng)


@scalar_or_array
def transform_quantile(q, params: TransformParams):
    """mu + sigma * H^(-1)(base quantile); exact for every kind."""
    q = quantile_levels(q)
    return params.loc.mu + params.loc.sigma * params.tr.inverse(params.base.quantile(q))


def sample_transform(n: int, params: TransformParams,
                     rng: np.random.Generator) -> np.ndarray:
    """Inverse-transform sampler; works for SAS, GH and K alike."""
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    z = params.base.sample(n, rng)
    return params.loc.mu + params.loc.sigma * params.tr.inverse(z)


def transform_pdf_k(x, mp: MatrixParams, nu: float, transforms) -> float:
    """Component-wise transformation density for a spherical t base.

    Each coordinate of Sigma^(-1/2)(x - mu) passes through its own
    one-dimensional map.
    """
    x = np.asarray(x, dtype=float)
    transforms = list(transforms)
    if x.shape != (mp.k,) or len(transforms) != mp.k:
        raise ValueError("x and transforms must match the dimension of mp")
    root = mp.sqrt_symmetric()
    y = np.linalg.solve(root, x - mp.mu_vec)
    hy = np.array([tr.forward(v) for tr, v in zip(transforms, y)])
    log_jac = sum(float(tr.log_jacobian(v)) for tr, v in zip(transforms, y))
    det_factor = 1.0 / math.sqrt(np.linalg.det(mp.sigma_mat))
    f = student_pdf_k(hy, MatrixParams(np.zeros(mp.k), np.eye(mp.k)), nu)
    return det_factor * f * math.exp(log_jac)
