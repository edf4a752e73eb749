"""Two-piece densities: one symmetric base, different scales on each side.

The density is a(delta)/sigma * f(s_l z) left of mu and a(delta)/sigma *
f(s_r z) right of it, glued continuously at mu.  Epsilon scaling keeps
a(delta) = 1; inverse scale factors (ISF) use s_l = delta = 1/s_r.  A
separate construction rescales through a map H obeying H(x) - H(-x) = x,
giving the density 2 f(H^(-1)(x)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .base import (
    LocationScale,
    SymmetricBase,
    find_root,
    quantile_levels,
    scalar_or_array,
)

EPSILON_EDGE = 1.0 - 1e-9  # |delta| at or beyond this is rejected

_CONDITION_GRID = np.linspace(-8.0, 8.0, 41)


@dataclass(frozen=True)
class EpsilonScaling:
    """s_left = 1/(1-delta), s_right = 1/(1+delta); a(delta) = 1."""

    delta: float

    def __post_init__(self):
        if not (np.isfinite(self.delta) and abs(self.delta) < EPSILON_EDGE):
            raise ValueError(
                f"epsilon scaling needs |delta| < {EPSILON_EDGE}, got {self.delta}")

    @property
    def s_left(self) -> float:
        return 1.0 / (1.0 - self.delta)

    @property
    def s_right(self) -> float:
        return 1.0 / (1.0 + self.delta)

    @property
    def a(self) -> float:
        return 1.0

    kind = "epsilon"


@dataclass(frozen=True)
class IsfScaling:
    """s_left = delta, s_right = 1/delta; a(delta) = 2/(delta + 1/delta)."""

    delta: float

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"ISF scaling needs delta > 0, got {self.delta}")

    @property
    def s_left(self) -> float:
        return self.delta

    @property
    def s_right(self) -> float:
        return 1.0 / self.delta

    @property
    def a(self) -> float:
        return 2.0 / (self.delta + 1.0 / self.delta)

    kind = "isf"


def side_masses(scheme) -> tuple[float, float]:
    """(left, right) probability masses; left = s_r / (s_l + s_r)."""
    sl, sr = scheme.s_left, scheme.s_right
    return sr / (sl + sr), sl / (sl + sr)


@dataclass(frozen=True)
class TwoPieceParams:
    base: SymmetricBase
    loc: LocationScale
    scheme: "EpsilonScaling | IsfScaling"

    @scalar_or_array
    def log_pdf(self, x):
        z = (x - self.loc.mu) / self.loc.sigma
        s = np.where(z < 0.0, self.scheme.s_left, self.scheme.s_right)
        return (math.log(self.scheme.a) - math.log(self.loc.sigma)
                + self.base.log_pdf(s * z))

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    @scalar_or_array
    def cdf(self, x):
        z = (x - self.loc.mu) / self.loc.sigma
        sl, sr, a = self.scheme.s_left, self.scheme.s_right, self.scheme.a
        left_mass, _ = side_masses(self.scheme)
        below = (a / sl) * self.base.cdf(sl * z)
        above = left_mass + (a / sr) * (self.base.cdf(sr * z) - 0.5)
        return np.where(z < 0.0, below, above)

    @scalar_or_array
    def quantile(self, q):
        qq = quantile_levels(q)
        sl, sr, a = self.scheme.s_left, self.scheme.s_right, self.scheme.a
        left_mass, _ = side_masses(self.scheme)
        # each side inverts its own tail mass, by the symmetry of the base
        lower = self.base.quantile(np.minimum(qq * sl / a, 0.5)) / sl
        upper = -self.base.quantile(np.minimum((1.0 - qq) * sr / a, 0.5)) / sr
        return self.loc.mu + self.loc.sigma * np.where(qq < left_mass, lower, upper)

    def mode(self) -> float:
        # branch rescaling leaves the peak of a unimodal base at mu
        return self.loc.mu

    def moment_order_bound(self) -> float:
        return self.base.moment_order_bound()

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return sample_two_piece(n, self, rng)


def sample_two_piece(n: int, p: TwoPieceParams,
                     rng: np.random.Generator) -> np.ndarray:
    """Branch-pick sampler: side chosen by mass, magnitude from the half base."""
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    left_mass, _ = side_masses(p.scheme)
    pick = rng.random(n)
    mag = np.abs(p.base.sample(n, rng))
    left_value = p.loc.mu - p.loc.sigma * mag / p.scheme.s_left
    right_value = p.loc.mu + p.loc.sigma * mag / p.scheme.s_right
    return np.where(pick < left_mass, left_value, right_value)


@dataclass(frozen=True)
class ScaleTransform:
    """A map H with H(x) - H(-x) = x, validated at construction.

    inv_func may supply a closed-form inverse; otherwise the inverse is
    obtained by bracketed root finding (H is required to be strictly
    increasing).
    """

    h_func: Callable[[float], float]
    name: str = "custom"
    inv_func: Callable[[float], float] | None = field(default=None)

    def __post_init__(self):
        self.check_condition(_CONDITION_GRID)

    def check_condition(self, grid) -> None:
        grid = np.asarray(grid, dtype=float)
        hx = np.array([self.h_func(g) for g in grid])
        hneg = np.array([self.h_func(-g) for g in grid])
        gap = np.max(np.abs(hx - hneg - grid))
        if gap > 1e-10:
            raise ValueError(
                f"scale transform '{self.name}' violates H(x)-H(-x)=x "
                f"(max deviation {gap:.3e})")
        if np.any(np.diff(hx) <= 0.0):
            raise ValueError(f"scale transform '{self.name}' is not increasing")

    def inverse(self, y: float) -> float:
        if self.inv_func is not None:
            return self.inv_func(y)
        lo, hi = -1.0, 1.0
        for _ in range(200):
            if self.h_func(lo) <= y <= self.h_func(hi):
                break
            if self.h_func(lo) > y:
                lo *= 2.0
            if self.h_func(hi) < y:
                hi *= 2.0
        return find_root(lambda t: self.h_func(t) - y, lo, hi)


def half_slope_transform() -> ScaleTransform:
    """H(x) = x/2; the symmetric member, density 2 f(2x)."""
    return ScaleTransform(lambda x: 0.5 * x, name="half_slope",
                          inv_func=lambda y: 2.0 * y)


def arctan_tilt_transform(c: float) -> ScaleTransform:
    """H(x) = x/2 + c (x arctan x - ln(1+x^2)/2); valid for |c| < 1/pi.

    The added term is even, so the defining condition holds identically;
    H'(x) = 1/2 + c arctan(x) stays positive under the bound on c.
    """
    if abs(c) >= 1.0 / math.pi:
        raise ValueError(f"|c| must be below 1/pi for monotonicity, got {c}")

    def h(x):
        return 0.5 * x + c * (x * math.atan(x) - 0.5 * math.log1p(x * x))

    return ScaleTransform(h, name=f"arctan_tilt({c})")


@scalar_or_array
def scale_transformed_pdf(z, base: SymmetricBase, st: ScaleTransform):
    """Density 2 f(H^(-1)(x)); normalization follows from the H condition."""
    return 2.0 * base.pdf(np.array([st.inverse(v) for v in z]))


@dataclass(frozen=True)
class ScaleTransformed:
    """Location-scale wrapper: standardizes to z = (x-mu)/sigma first."""

    base: SymmetricBase
    loc: LocationScale
    st: ScaleTransform

    @scalar_or_array
    def pdf(self, x):
        z = (x - self.loc.mu) / self.loc.sigma
        return scale_transformed_pdf(z, self.base, self.st) / self.loc.sigma
