"""Shape functionals of a univariate law.

A law here is any object with pdf(x), cdf(x), quantile(p), mode() and
moment_order_bound(), whose quantile takes an array of levels (and may
answer with one value for all of them); every law on base.Located has them
all.  Skewness is the mode-based 1 - 2 F(mode) functional, kurtosis an
octile spread ratio, and raw moments come from quadrature with an explicit
infinity flag for t-based tails.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from .base import IntegrationError, integrate
from .transform import TransformParams


# log of the largest float
_LOG_MAX = math.log(sys.float_info.max)


def ag_skewness(d) -> float:
    """AG skewness 1 - 2 F(mode); zero for symmetric unimodal laws."""
    return 1.0 - 2.0 * float(d.cdf(d.mode()))


def quantile_kurtosis(d) -> float:
    """Octile spread ratio ((q7-q5) + (q3-q1)) / (q6-q2), location/scale free.

    d.quantile is asked once, for the array of the seven octile levels.
    """
    q = [float(v) for v in np.broadcast_to(d.quantile(np.arange(1, 8) / 8.0), (7,))]
    spread = q[5] - q[1]
    if spread <= 0.0:
        raise ValueError("degenerate interoctile spread")
    return ((q[6] - q[4]) + (q[2] - q[0])) / spread


def moment(d, r: int, tol: float = 1e-8) -> float:
    """Raw moment E[X^r] by quadrature.

    Returns math.inf (a value, never NaN and never an exception) when the
    moment-existence rule fails: a Student-t based family has finite
    moments only for orders strictly below nu.
    """
    if r < 1 or int(r) != r:
        raise ValueError(f"moment order must be a positive integer, got {r}")
    if r >= d.moment_order_bound():
        return math.inf
    if isinstance(d, TransformParams):
        return _transform_moment(d, r, tol)
    return integrate(lambda x: x ** r * d.pdf(x), -np.inf, np.inf, tol=tol)


def _transform_moment(d: TransformParams, r: int, tol: float) -> float:
    """E[(mu + sigma H^-1(Y))^r] over the base law of Y.

    H^-1 is closed form for every transformation, where the density in x
    needs a numeric solve of H at each point.  Each term is formed in logs,
    so a large power does not overflow against a tiny density.  Where
    mu + sigma H^-1(y) overflows, its log is at least that of the largest
    float: a term whose bound, times the quadrature's tan-substitution
    weight (about y^2), stays below tol counts as 0, and any other term
    that overflows raises IntegrationError, since the moment then diverges
    or exceeds the float range.
    """
    mu, sigma = d.loc.mu, d.loc.sigma
    log_tol = math.log(tol)

    def term(y):
        with np.errstate(over="ignore", divide="ignore"):
            v = mu + sigma * d.tr.inverse(y)
            log_term = r * np.minimum(np.log(np.abs(v)), _LOG_MAX) + d.base.log_pdf(y)
            negligible = np.isinf(v) & (log_term + 2.0 * np.log(np.abs(y)) < log_tol)
        if (bad := ~negligible & (np.isinf(v) | (log_term > _LOG_MAX))).any():
            raise IntegrationError(
                f"moment of order {r}: the integrand overflows at y = {float(y[bad][0])!r}")
        size = np.where(negligible, 0.0, np.exp(log_term))
        return np.where((v < 0.0) & (r % 2 == 1), -size, size)

    return integrate(term, -np.inf, np.inf, tol=tol)
