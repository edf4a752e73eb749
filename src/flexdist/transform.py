"""Transformation families: Y = H^(-1)(X) for X drawn from a symmetric base.

Three transformations are supported.  The sinh-arcsinh map has closed
forms in both directions, so its density sigma^(-1) f(H(z)) H'(z) is
available.  The Tukey g-and-h and the K tail map only define H^(-1)
analytically; those families are quantile- and sampling-only, and any
density request fails loudly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import (
    LocationScale,
    MatrixParams,
    SymmetricBase,
    UnsupportedDensityError,
    golden_section_max,
    quantile_levels,
    scalar_or_array,
    student_pdf_k,
)

GH_SMALL_G = 1e-8  # below this |g| the analytic g -> 0 limit branch is used


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


@scalar_or_array
def sas_log_jacobian(x, delta: float, eta: float):
    """log H'(x) with H'(x) = eta cosh(eta arcsinh(x) + delta) / sqrt(1+x^2)."""
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    w = eta * np.arcsinh(x) + delta
    # log cosh without overflow for large |w|
    log_cosh = np.abs(w) + np.log1p(np.exp(-2.0 * np.abs(w))) - math.log(2.0)
    return math.log(eta) + log_cosh - 0.5 * np.log1p(x * x)


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
    bracketed, so the finite targets' bits do not depend on them.
    """
    target = np.atleast_1d(np.asarray(target, dtype=float))
    finite = np.isfinite(target)
    t = np.where(finite, target, 0.0)
    lo = np.full_like(t, lo0)
    hi = np.full_like(t, hi0)
    # widen until bracketed (rarely needed; inverse maps usually explode fast)
    for _ in range(60):
        bad_lo = inverse_fn(lo) > t
        bad_hi = inverse_fn(hi) < t
        if not (bad_lo.any() or bad_hi.any()):
            break
        lo = np.where(bad_lo, lo * 2.0, lo)
        hi = np.where(bad_hi, hi * 2.0, hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = inverse_fn(mid) < t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.where(finite, 0.5 * (lo + hi), target)


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

    invertible_density = True

    def forward(self, x):
        return sas_forward(x, self.delta, self.eta)

    def inverse(self, x):
        return sas_inverse(x, self.delta, self.eta)

    def log_jacobian(self, x):
        return sas_log_jacobian(x, self.delta, self.eta)


@dataclass(frozen=True)
class GhTransform:
    """Tukey g-and-h: only H^(-1) is analytic, density unavailable."""

    g: float
    h: float

    def __post_init__(self):
        if not (np.isfinite(self.h) and self.h >= 0.0):
            raise ValueError(f"h must be nonnegative, got {self.h}")
        if not np.isfinite(self.g):
            raise ValueError("g must be finite")

    invertible_density = False

    def inverse(self, x):
        return gh_inverse(x, self.g, self.h)

    @scalar_or_array
    def forward(self, x):
        # numeric: monotone bisection against the closed-form inverse
        return _monotone_solve(self.inverse, x)

    def log_jacobian(self, x):
        raise UnsupportedDensityError(
            "g-and-h has no closed-form forward jacobian; density unsupported")


@dataclass(frozen=True)
class KTransform:
    """K tail transformation, eta >= 0; density unavailable."""

    eta: float

    def __post_init__(self):
        if not (np.isfinite(self.eta) and self.eta >= 0.0):
            raise ValueError(f"eta must be nonnegative, got {self.eta}")

    invertible_density = False

    def inverse(self, x):
        return k_inverse(x, self.eta)

    @scalar_or_array
    def forward(self, x):
        return _monotone_solve(self.inverse, x)

    def log_jacobian(self, x):
        raise UnsupportedDensityError(
            "K transformation has no closed-form forward jacobian; density unsupported")


@dataclass(frozen=True)
class TransformParams:
    """Base draw pushed through mu + sigma * H^(-1)(.)."""

    base: SymmetricBase
    loc: LocationScale
    tr: "SasTransform | GhTransform | KTransform"

    # -- distribution interface -------------------------------------------

    @scalar_or_array
    def log_pdf(self, x):
        if not self.tr.invertible_density:
            raise UnsupportedDensityError(
                f"{type(self.tr).__name__} supports no density evaluation")
        z = (x - self.loc.mu) / self.loc.sigma
        out = (self.base.log_pdf(self.tr.forward(z)) + self.tr.log_jacobian(z)
               - math.log(self.loc.sigma))
        # at z = +-inf the SAS log jacobian is inf - inf
        out[np.isinf(z)] = -np.inf
        return out

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    @scalar_or_array
    def cdf(self, x):
        return self.base.cdf(self.tr.forward((x - self.loc.mu) / self.loc.sigma))

    def quantile(self, p):
        return transform_quantile(p, self)

    def mode(self) -> float:
        return golden_section_max(self.log_pdf, self.loc.mu - 10.0 * self.loc.sigma,
                                  self.loc.mu + 10.0 * self.loc.sigma)

    def moment_order_bound(self) -> float:
        return self.base.moment_order_bound()

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
    one-dimensional map; only density-invertible (SAS) components are
    accepted.
    """
    x = np.asarray(x, dtype=float)
    transforms = list(transforms)
    if x.shape != (mp.k,) or len(transforms) != mp.k:
        raise ValueError("x and transforms must match the dimension of mp")
    for tr in transforms:
        if not tr.invertible_density:
            raise UnsupportedDensityError(
                "component-wise density needs invertible transformations")
    root = mp.sqrt_symmetric()
    y = np.linalg.solve(root, x - mp.mu_vec)
    hy = np.array([tr.forward(v) for tr, v in zip(transforms, y)])
    log_jac = sum(float(tr.log_jacobian(v)) for tr, v in zip(transforms, y))
    det_factor = 1.0 / math.sqrt(np.linalg.det(mp.sigma_mat))
    f = student_pdf_k(hy, MatrixParams(np.zeros(mp.k), np.eye(mp.k)), nu)
    return det_factor * f * math.exp(log_jac)
