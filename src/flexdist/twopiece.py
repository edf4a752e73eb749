"""Two-piece densities: one symmetric base, different scales on each side.

The density is a(delta)/sigma * f(s_l z) left of mu and a(delta)/sigma *
f(s_r z) right of it, glued continuously at mu.  Epsilon scaling keeps
a(delta) = 1; inverse scale factors (ISF) use s_l = delta = 1/s_r.  A
separate construction rescales through a map H obeying H(x) - H(-x) = x,
giving the density 2 f(H^(-1)(x)).  TwoPieceParams rides base.Located with
the standard law a(delta) f(s z), and ScaleTransformed with the image under
H of the skew-symmetric law 2 f(w) H'(w).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .base import (
    Located,
    LocationScale,
    SymmetricBase,
    log1p_square,
    normal_logf,
    scalar_or_array,
    solve_increasing,
)
from .skewsym import _LOG_TWO, _SkewSymmetricImage

EPSILON_EDGE = 1.0 - 1e-9  # |delta| at or beyond this is rejected

_CONDITION_GRID = np.linspace(-8.0, 8.0, 41)


def scales(delta, kind: str):
    """(s_left, s_right, a) of the scaling kind at float or array delta."""
    if kind == "epsilon":
        return 1.0 / (1.0 - delta), 1.0 / (1.0 + delta), 1.0
    return delta, 1.0 / delta, 2.0 / (delta + 1.0 / delta)


class _Scaling:
    s_left = property(lambda self: scales(self.delta, self.kind)[0])
    s_right = property(lambda self: scales(self.delta, self.kind)[1])
    a = property(lambda self: scales(self.delta, self.kind)[2])


@dataclass(frozen=True)
class EpsilonScaling(_Scaling):
    """s_left = 1/(1-delta), s_right = 1/(1+delta); a(delta) = 1."""

    delta: float

    def __post_init__(self):
        if not (np.isfinite(self.delta) and abs(self.delta) < EPSILON_EDGE):
            raise ValueError(
                f"epsilon scaling needs |delta| < {EPSILON_EDGE}, got {self.delta}")

    kind = "epsilon"


@dataclass(frozen=True)
class IsfScaling(_Scaling):
    """s_left = delta, s_right = 1/delta; a(delta) = 2/(delta + 1/delta)."""

    delta: float

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"ISF scaling needs delta > 0, got {self.delta}")

    kind = "isf"


def two_piece_logf(z, delta, *shapes, scaling="isf", base=normal_logf, grad=None):
    """log a f(s z), s = s_left below 0 and s_right above, for the scaling's
    s_left, s_right and a at delta and the base log-density f (normal unless
    given, its shapes after delta), in the form of base.normal_logf.  Fits
    run in ISF coordinates under either scaling, so the partials are ISF's."""
    if grad is not None and scaling != "isf":
        raise ValueError("two_piece_logf gives partials under the isf scaling only")
    s_l, s_r, a = scales(delta, scaling)
    left = z < 0.0
    s = np.where(left, s_l, s_r)
    v = s * z
    f = base(v, *shapes, grad=None if grad is None else grad[1:])
    if grad is None:
        return np.log(a) + f
    f, dv, *d_base = f
    # partials in delta of log s_left = -log s_right, and of log a
    ds = np.where(left, 1.0 / delta, -1.0 / delta)
    d_log_a = (1.0 - delta * delta) / (delta * (delta * delta + 1.0))
    return np.log(a) + f, dv * s, dv * v * ds + d_log_a, *d_base


def side_masses(scheme) -> tuple[float, float]:
    """(left, right) probability masses; left = s_r / (s_l + s_r)."""
    sl, sr = scheme.s_left, scheme.s_right
    return sr / (sl + sr), sl / (sl + sr)


@dataclass(frozen=True)
class TwoPieceParams(Located):
    """A two-piece law; branch rescaling leaves the peak of a unimodal base
    at mu, the default mode."""

    base: SymmetricBase
    loc: LocationScale
    scheme: "EpsilonScaling | IsfScaling"

    def _logf(self, z):
        logf, shapes = self.base.log_density
        return two_piece_logf(z, self.scheme.delta, *shapes, scaling=self.scheme.kind, base=logf)

    def _cdf(self, z):
        sl, sr, a = self.scheme.s_left, self.scheme.s_right, self.scheme.a
        left_mass, _ = side_masses(self.scheme)
        below = (a / sl) * self.base._cdf(sl * z)
        above = left_mass + (a / sr) * (self.base._cdf(sr * z) - 0.5)
        return np.where(z < 0.0, below, above)

    def _quantile(self, q):
        sl, sr, a = self.scheme.s_left, self.scheme.s_right, self.scheme.a
        left_mass, _ = side_masses(self.scheme)
        # each side inverts its own tail mass, by the symmetry of the base
        lower = self.base._quantile(np.minimum(q * sl / a, 0.5)) / sl
        upper = -self.base._quantile(np.minimum((1.0 - q) * sr / a, 0.5)) / sr
        return np.where(q < left_mass, lower, upper)

    def moment_order_bound(self) -> float:
        return self.base.moment_order_bound()

    def _draw(self, n, rng):
        """Branch pick: side chosen by mass, magnitude from the half base."""
        left_mass, _ = side_masses(self.scheme)
        pick = rng.random(n)
        mag = np.abs(self.base._draw(n, rng))
        return np.where(pick < left_mass, -mag / self.scheme.s_left, mag / self.scheme.s_right)


@dataclass(frozen=True)
class ScaleTransform:
    """A map H with H(x) - H(-x) = x and its slope H', both array maps; the
    conditions H' > 0 and H'(x) + H'(-x) = 1 (the first differentiated) are
    checked at construction.  H^(-1) is solved by base.solve_increasing with
    Newton steps on H', so a linear H is inverted in one step."""

    h_func: Callable[[np.ndarray], np.ndarray]
    slope_func: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"

    def __post_init__(self):
        self.check_condition(_CONDITION_GRID)

    def check_condition(self, grid) -> None:
        """Raises ValueError where H or H' breaks its condition on grid, each
        map evaluated in one call on grid and -grid."""
        grid = np.asarray(grid, dtype=float)
        both = np.concatenate([grid, -grid])
        hx, hneg = np.split(np.asarray(self.h_func(both), dtype=float), 2)
        gap = np.max(np.abs(hx - hneg - grid))
        if gap > 1e-10:
            raise ValueError(
                f"scale transform '{self.name}' violates H(x)-H(-x)=x "
                f"(max deviation {gap:.3e})")
        slope = np.asarray(self.slope_func(both), dtype=float)
        gap = np.max(np.abs(slope[:grid.size] + slope[grid.size:] - 1.0))
        if not (slope > 0.0).all() or gap > 1e-10:
            raise ValueError(f"scale transform '{self.name}' needs H' > 0 and "
                             f"H'(x)+H'(-x)=1 (max deviation {gap:.3e})")

    @scalar_or_array
    def inverse(self, y):
        """H^(-1)(y); +-inf and NaN map to themselves."""
        out = y.copy()
        inside = np.isfinite(y)
        out[inside] = solve_increasing(self.h_func, lambda w, h, t: (h - t) / self.slope_func(w),
                                       y[inside], 0.0, 1.0)
        return out


def half_slope_transform() -> ScaleTransform:
    """H(x) = x/2; the symmetric member, density 2 f(2x)."""
    return ScaleTransform(lambda x: 0.5 * x, lambda x: np.full(np.shape(x), 0.5),
                          name="half_slope")


def arctan_tilt_transform(c: float) -> ScaleTransform:
    """H(x) = x/2 + c (x arctan x - ln(1+x^2)/2); valid for |c| < 1/pi.

    The added term is even, so the defining condition holds identically;
    H'(x) = 1/2 + c arctan(x) stays positive under the bound on c.
    """
    if abs(c) >= 1.0 / math.pi:
        raise ValueError(f"|c| must be below 1/pi for monotonicity, got {c}")

    def h(x):
        return 0.5 * x + c * (x * np.arctan(x) - 0.5 * log1p_square(x))

    return ScaleTransform(h, lambda x: 0.5 + c * np.arctan(x), name=f"arctan_tilt({c})")


@dataclass(frozen=True)
class ScaleTransformed(_SkewSymmetricImage):
    """The law of density 2 f(H^(-1)(z)) at z = (x - mu) / sigma, whose
    normalization follows from the H condition: the image under H of W of
    density 2 f(w) H'(w), the skew-symmetric law with pi = H'.  Its mode is
    H(0), where H^(-1) meets the peak of f, and as 0 < H' < 1 its moments
    exist where the base's do."""

    base: SymmetricBase
    loc: LocationScale
    st: ScaleTransform

    _pi = property(lambda self: self.st.slope_func)
    _inverse = property(lambda self: self.st.inverse)

    def _log_g(self, w):
        return _LOG_TWO + self.base._logf(w) + np.log(self.st.slope_func(w))

    def _logf(self, z):
        return _LOG_TWO + self.base._logf(self.st.inverse(z))

    def _forward(self, w):
        # the quantiles' ends at levels 0 and 1 stay at -inf and +inf
        inside = np.isfinite(w)
        w[inside] = self.st.h_func(w[inside])
        return w

    def mode(self) -> float:
        return self.loc.mu + self.loc.sigma * float(self.st.h_func(np.zeros(1))[0])
