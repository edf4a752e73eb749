"""Transformation families: Y = H^(-1)(X) for X drawn from a symmetric base.

Three transformations are supported, and each has a density
sigma^(-1) f(H(z)) H'(z).  Each map is one class, and its forward (H),
inverse (H^(-1)) and log_jacobian (log H') are written there once; they
take a float or an array, and the class checks its parameters once, at
construction.  The sinh-arcsinh map has closed forms in both directions.
The Tukey g-and-h and the K tail map only define H^(-1) analytically: their
H is solved by base.solve_increasing, with Newton steps on the closed-form
slope of H^(-1), and log H'(z) = -log (H^(-1))'(H(z)).  TransformParams
rides base.Located with the standard law of H^(-1)(Z), Z from the base; its
mode is searched in y = H(z), from the closed-form slope of log (H^(-1))'.
transform_pdf_k rides base.MatrixParams: it maps each coordinate of
y = Sigma^(-1/2)(x - mu) through its own H and takes the spherical t there.
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
    _spherical_t_pdf,
    solve_increasing,
    z_score,
)

GH_SMALL_G = 1e-8  # below this |g| the analytic g -> 0 limit branch is used

_BIG = np.finfo(float).max


def _sas_log_slope(u, x, eta):
    # log eta + log cosh u - log(1 + x^2) / 2 at u = eta arcsinh(x) + delta
    au = np.abs(u)
    return np.log(eta) + (au + np.log1p(np.exp(-2.0 * au)) - math.log(2.0)) - 0.5 * log1p_square(x)


def sas_logf(z, delta, eta, *shapes, base=normal_logf, grad=None):
    """log f(H(z)) + log H'(z) for the sinh-arcsinh map H and the base
    log-density f (normal unless given, its shapes after delta and eta), in
    the form of base.normal_logf; the partials are in z, delta, eta and the
    base's shapes."""
    asinh_z = np.arcsinh(z)
    u = eta * asinh_z + delta
    # past |u| ~ 710, y = sinh u is +-inf and the value -inf, a row the
    # optimizer rejects
    with np.errstate(over="ignore"):
        y = np.sinh(u)
    f = base(y, *shapes, grad=None if grad is None else grad[2:])
    f, dy, *d_base = (f, None) if grad is None else f
    val = f + _sas_log_slope(u, z, eta)
    if grad is None:
        return val
    # the partial in u: y = sinh u and log cosh u both move with it
    with np.errstate(over="ignore"):
        du = dy * np.cosh(u) + np.tanh(u)
    r2 = 1.0 + z * z
    return (val, du * eta / np.sqrt(r2) - z / r2, du, du * asinh_z + 1.0 / eta,
            *d_base)


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

    @scalar_or_array
    def forward(self, x):
        """H(x) = sinh(eta arcsinh(x) + delta), strictly increasing."""
        with np.errstate(over="ignore"):  # +-inf past the largest float
            return np.sinh(self.eta * np.arcsinh(x) + self.delta)

    @scalar_or_array
    def inverse(self, x):
        # with a small eta, (asinh x - delta) / eta passes 710 inside the fit
        # box, where H^(-1)(x) is +-inf as a float
        with np.errstate(over="ignore"):
            return np.sinh((np.arcsinh(x) - self.delta) / self.eta)

    @scalar_or_array
    def log_jacobian(self, x):
        """log H'(x) with H'(x) = eta cosh(eta arcsinh(x) + delta) / sqrt(1 + x^2)."""
        return _sas_log_slope(self.eta * np.arcsinh(x) + self.delta, x, self.eta)

    def logf(self, z, base: SymmetricBase):
        logf, shapes = base.log_density
        return sas_logf(z, self.delta, self.eta, *shapes, base=logf)

    def d_log_inverse_slope(self, y):
        """The slope in y of log (H^(-1))'(y), (tanh(w) / eta - y / r) / r with
        w = (asinh y - delta) / eta and r = sqrt(1 + y^2); no term overflows."""
        r = np.hypot(1.0, y)
        return (np.tanh((np.arcsinh(y) - self.delta) / self.eta) / self.eta - y / r) / r

    def moment_order_bound(self, base: SymmetricBase) -> float:
        # H^(-1)(y) grows like |y|^(1 / eta)
        return base.moment_order_bound() * self.eta


class _InverseOnly:
    """A map whose H^(-1) and log slope are closed form: H is solved, and
    log H'(z) = -log (H^(-1))'(H(z))."""

    @scalar_or_array
    def forward(self, x):
        # from 0; H's domain is H^(-1)'s range, its values at the largest floats
        return solve_increasing(self.inverse, self._newton, x, 0.0, 1.0,
                                self.inverse([-_BIG, _BIG]))

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
        # H is +-inf beyond the end of a bounded support
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

    @scalar_or_array
    def inverse(self, x):
        """Tukey's H^(-1)(x) = (1/g)(exp(gx) - 1) exp(hx^2/2), limit x exp(hx^2/2) at g = 0."""
        with np.errstate(over="ignore"):
            tail = np.exp(0.5 * self.h * x * x)
            if abs(self.g) < GH_SMALL_G:
                return x * tail
            return np.expm1(self.g * x) / self.g * tail

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

    def d_log_inverse_slope(self, y):
        """The slope in y of log_inverse_slope, h y + g + h N / D: with e =
        exp(-|g y|) and q = (1 - e) / g, N / D is (q + y e) / (1 + h y q)
        where g y >= 0 and (y - q) / (e - h y q) elsewhere, so no term
        overflows; in the limit g -> 0, h y + 2 h y / (1 + h y^2)."""
        g = 0.0 if abs(self.g) < GH_SMALL_G else self.g
        h = self.h
        if h == 0.0:
            return np.full_like(y, g)
        if g == 0.0:
            v, e, q = 0.0, 1.0, y
        else:
            v = g * y
            e = np.exp(-np.abs(v))
            q = -np.expm1(-np.abs(v)) / g
        with np.errstate(over="ignore", invalid="ignore"):
            hyq = h * y * q
            ratio = np.where(v >= 0.0, (q + y * e) / (1.0 + hyq), (y - q) / (e - hyq))
            return h * y + g + h * ratio

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

    @scalar_or_array
    def inverse(self, x):
        """H^(-1)(x) = x (1+x^2)^eta; odd, increasing, pure tail inflation.
        Where 1 + x^2 overflows, (1+x^2)^eta is exp(eta log1p_square(x))."""
        with np.errstate(over="ignore"):
            out = x * np.power(1.0 + x * x, self.eta)
            far = np.isinf(out) & np.isfinite(x)
            if far.any():
                out[far] = x[far] * np.exp(self.eta * log1p_square(x[far]))
        return out

    def log_inverse_slope(self, y):
        """log (H^(-1))'(y) = (eta - 1) log1p(y^2) + log1p((1 + 2 eta) y^2)."""
        return ((self.eta - 1.0) * log1p_square(y)
                + log1p_square(y, 1.0 / (1.0 + 2.0 * self.eta)))

    def d_log_inverse_slope(self, y):
        """The slope in y of log_inverse_slope; 0 where y^2 overflows."""
        c = 1.0 + 2.0 * self.eta
        with np.errstate(over="ignore"):
            q = y * y
        return y * ((self.eta - 1.0) / (1.0 + q) + c / (1.0 + c * q)) * 2.0

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

    # the mode is searched in y = H(z), where log f(z) = base logf(y) -
    # log (H^(-1))'(y) is closed form: no step solves H, and the peak in y is
    # O(1) however far out H^(-1) puts it in z.  Far out the density in y
    # falls, and the bracket stops short of where the base kernels' y * y
    # overflows.
    _mode_bracket = (-1e150, 1e150)

    def _score(self, y):
        """The slope in y = H(z) of log f(z)."""
        logf, shapes = self.base.log_density
        return z_score(logf, y, *shapes) - self.tr.d_log_inverse_slope(y)

    def _mode_z(self, y):
        # a peak beyond the largest float is held at it
        with np.errstate(over="ignore"):
            return float(min(max(self.tr.inverse(y), -_BIG), _BIG))

    def moment_order_bound(self) -> float:
        return self.tr.moment_order_bound(self.base)


def transform_pdf_k(x, mp: MatrixParams, nu: float, transforms):
    """Component-wise transformation density for a spherical t base,
    |Sigma|^(-1/2) t_k(H(y)) prod_j H_j'(y_j) with y = Sigma^(-1/2)(x - mu),
    each coordinate through its own one-dimensional map H_j, at a point or
    a stack of points.
    """
    transforms = list(transforms)
    if len(transforms) != mp.k:
        raise ValueError("transforms must match the dimension of mp")

    def g(y):
        # contiguous columns, so a stack's ufunc loops are those of a point
        cols = np.ascontiguousarray(y.T)
        hy = np.column_stack([tr.forward(c) for tr, c in zip(transforms, cols)])
        return _spherical_t_pdf(hy, nu) * np.exp(
            sum(tr.log_jacobian(c) for tr, c in zip(transforms, cols)))

    return mp.density(x, g)
