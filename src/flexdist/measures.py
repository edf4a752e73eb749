"""Shape functionals over a unified distribution interface.

Any object exposing pdf(x), cdf(x), quantile(p) and mode() can be fed to
these measures, where quantile takes an array of levels (and may answer
with one value for all of them); every family parameter record in the
package implements that surface.  Skewness is the mode-based
1 - 2 F(mode) functional, kurtosis an octile spread ratio, and raw
moments come from quadrature with an explicit infinity flag for t-based
tails.
"""
from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

import numpy as np

from .base import integrate


@runtime_checkable
class Distribution(Protocol):
    def pdf(self, x): ...

    def cdf(self, x): ...

    def quantile(self, p): ...  # p: an array of levels

    def mode(self) -> float: ...


def ag_skewness(d: Distribution) -> float:
    """AG skewness 1 - 2 F(mode); zero for symmetric unimodal laws."""
    return 1.0 - 2.0 * float(d.cdf(d.mode()))


def quantile_kurtosis(d: Distribution) -> float:
    """Octile spread ratio ((q7-q5) + (q3-q1)) / (q6-q2), location/scale free.

    d.quantile is asked once, for the array of the seven octile levels.
    """
    q = [float(v) for v in np.broadcast_to(d.quantile(np.arange(1, 8) / 8.0), (7,))]
    spread = q[5] - q[1]
    if spread <= 0.0:
        raise ValueError("degenerate interoctile spread")
    return ((q[6] - q[4]) + (q[2] - q[0])) / spread


def moment(d: Distribution, r: int, tol: float = 1e-8) -> float:
    """Raw moment E[X^r] by quadrature.

    Returns math.inf (a value, never NaN and never an exception) when the
    moment-existence rule fails: a Student-t based family has finite
    moments only for orders strictly below nu.
    """
    if r < 1 or int(r) != r:
        raise ValueError(f"moment order must be a positive integer, got {r}")
    bound = getattr(d, "moment_order_bound", None)
    if bound is not None and r >= bound():
        return math.inf
    return integrate(lambda x: x ** r * d.pdf(x), -np.inf, np.inf, tol=tol)
