"""Transformation families: Y = H^(-1)(X) for X drawn from a symmetric base.

Three transformations are supported, and each has a density
sigma^(-1) f(H(z)) H'(z).  The sinh-arcsinh map has closed forms in both
directions.  The Tukey g-and-h and the K tail map only define H^(-1)
analytically: their H is solved by base.solve_increasing, with Newton steps
on the closed-form slope of H^(-1), and log H'(z) = -log (H^(-1))'(H(z)).
TransformParams rides base.Located with the standard law of H^(-1)(Z), Z
from the base.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import (
    LOGISTIC,
    NORMAL,
    Located,
    LocationScale,
    MatrixParams,
    SymmetricBase,
    log1p_square,
    normal_logf,
    scalar_or_array,
    solve_increasing,
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
    """H^(-1)(x) = x (1+x^2)^eta; odd, increasing, pure tail inflation.
    Where 1 + x^2 overflows, (1+x^2)^eta is exp(eta log1p_square(x))."""
    if eta < 0.0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    with np.errstate(over="ignore"):
        out = x * np.power(1.0 + x * x, eta)
        far = np.isinf(out) & np.isfinite(x)
        if far.any():
            out[far] = x[far] * np.exp(eta * log1p_square(x[far]))
    return out


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

    def moment_order_bound(self, base: SymmetricBase) -> float:
        # H^(-1)(y) grows like |y|^(1 / eta)
        return base.moment_order_bound() * self.eta


class _InverseOnly:
    """A map whose H^(-1) and log slope are closed form: H is solved, and
    log H'(z) = -log (H^(-1))'(H(z))."""

    @scalar_or_array
    def forward(self, x):
        # +-inf and NaN map to themselves, and a target at or beyond the end
        # of a bounded H^(-1) to +-inf; the rest are solved from 0
        top, bottom = self.inverse(np.array([_BIG, -_BIG]))
        out = np.where(x >= top, np.inf, np.where(x <= bottom, -np.inf, np.nan))
        inside = (bottom < x) & (x < top)
        out[inside] = solve_increasing(self.inverse, self._newton, x[inside], 0.0, 1.0)
        return out

    def _newton(self, y, v, t):
        # the step toward v = H^(-1)(y) = t: where v and t share a sign, on
        # log(v / t) in log |y|, which K's power tails meet in one step; else
        # (from y = 0) on v - t in y.  The slopes are formed in logs.
        log_slope = self.log_inverse_slope(y)
        ratio = v / t
        elasticity = np.exp(np.log(np.abs(y)) + log_slope - np.log(np.abs(v)))
        return np.where((ratio > 0.0) & np.isfinite(ratio),
                        -y * np.expm1(-np.log(ratio) / elasticity),
                        (v - t) * np.exp(-log_slope))

    @scalar_or_array
    def log_jacobian(self, x):
        return -self.log_inverse_slope(self.forward(x))

    def logf(self, z, base: SymmetricBase):
        y = self.forward(z)
        out = base._logf(y) - self.log_inverse_slope(y)
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

    def moment_order_bound(self, base: SymmetricBase) -> float:
        # H^(-1)(y) grows like exp(h y^2 / 2 + |g y|): against a normal base
        # E exp(r h Y^2 / 2) diverges from r h = 1 on, against the logistic's
        # exp(-|y|) E exp(r |g Y|) from r |g| = 1 on (any h > 0 diverges), and
        # against the t's power tails every order diverges
        if self.g == 0.0 and self.h == 0.0:
            return base.moment_order_bound()
        if base.kind == NORMAL:
            return 1.0 / self.h if self.h > 0.0 else math.inf
        if base.kind == LOGISTIC and self.h == 0.0:
            return 1.0 / abs(self.g)
        return 0.0


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

    def moment_order_bound(self, base: SymmetricBase) -> float:
        # H^(-1)(y) grows like |y|^(1 + 2 eta)
        return base.moment_order_bound() / (1.0 + 2.0 * self.eta)


@dataclass(frozen=True)
class TransformParams(Located):
    """Base draw pushed through mu + sigma * H^(-1)(.)."""

    base: SymmetricBase
    loc: LocationScale
    tr: "SasTransform | GhTransform | KTransform"

    def _logf(self, z):
        return self.tr.logf(z, self.base)

    def _cdf(self, z):
        return self.base._cdf(self.tr.forward(z))

    def _quantile(self, q):
        # exact for every kind
        return self.tr.inverse(self.base._quantile(q))

    def _draw(self, n, rng):
        return self.tr.inverse(self.base._draw(n, rng))

    @property
    def _mode_bracket(self):
        # z = +-10, widened to H^(-1)(+-10) where the base's peak lies beyond
        # them (SAS puts H^(-1)(0) at sinh(-delta / eta)), but held within
        # +-1e7, where golden-section steps from the ends round by less than
        # their tolerance 1e-8
        with np.errstate(over="ignore"):
            lo, hi = np.clip(self.tr.inverse(np.array([-10.0, 10.0])), -1e7, 1e7)
        return min(-10.0, lo), max(10.0, hi)

    def moment_order_bound(self) -> float:
        return self.tr.moment_order_bound(self.base)


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
