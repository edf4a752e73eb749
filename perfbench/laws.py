"""Seeded inputs: standard constructions of each family with numpy alone.

These samplers make the benchmark's datasets and evaluation points, so
flexdist receives only generated numbers.  They use numpy and scipy.special,
which flexdist loads anyway; scipy.stats stays out of the measured set-up.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import special


def two_piece_scales(p):
    delta = float(p["delta"])
    if p.get("scaling", "isf") == "epsilon":
        return 1.0 / (1.0 - delta), 1.0 / (1.0 + delta), 1.0
    return delta, 1.0 / delta, 2.0 / (delta + 1.0 / delta)


def gh_inverse(z, p):
    g, h = float(p["g"]), float(p["h"])
    core = z if abs(g) < 1e-8 else np.expm1(g * z) / g
    return core * np.exp(0.5 * h * z * z)


def k_inverse(z, p):
    return z * (1.0 + z * z) ** float(p["eta"])


def draw(family, p, n, rng):
    """Independent sampler from standard constructions of each family."""
    mu, sigma = float(p["mu"]), float(p["sigma"])
    if family == "normal":
        z = rng.standard_normal(n)
    elif family == "logistic":
        z = rng.logistic(size=n)
    elif family == "t":
        z = rng.standard_t(float(p["nu"]), n)
    elif family in ("skew_normal", "skew_t"):
        delta = float(p["delta"])
        b = delta / math.sqrt(1.0 + delta * delta)
        z = b * np.abs(rng.standard_normal(n)) + math.sqrt(1.0 - b * b) * rng.standard_normal(n)
        if family == "skew_t":
            nu = float(p["nu"])
            z = z / np.sqrt(rng.chisquare(nu, n) / nu)
    elif family == "sas_normal":
        u = rng.standard_normal(n)
        z = np.sinh((np.arcsinh(u) - float(p["delta"])) / float(p["eta"]))
    elif family == "gh_normal":
        z = gh_inverse(rng.standard_normal(n), p)
    elif family == "k_normal":
        z = k_inverse(rng.standard_normal(n), p)
    elif family in ("twopiece_normal", "twopiece_t"):
        s_l, s_r, _ = two_piece_scales(p)
        mag = np.abs(rng.standard_normal(n) if family == "twopiece_normal"
                     else rng.standard_t(float(p["nu"]), n))
        left = rng.random(n) < s_r / (s_l + s_r)
        z = np.where(left, -mag / s_l, mag / s_r)
    else:
        raise ValueError(f"no sampler for {family!r}")
    return mu + sigma * z


def _bisect(cdf, u, lo=-40.0, hi=40.0, iters=64):
    lo, hi = np.full_like(u, lo), np.full_like(u, hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < u
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def stratified_draw(family, p, n, rng):
    """A sample of the law with one point in each 1/n quantile stratum.

    The points come in random order, and each one is distributed as the law.
    The spread of the sample's shape from seed to seed is far smaller, and so
    is the spread of the fitting work: with plain draws one gamma sample in
    eight took 2.5 times the simplex iterations of the others.
    """
    u = np.maximum((rng.permutation(n) + rng.random(n)) / n, np.finfo(float).tiny)
    if family == "normal":
        z = special.ndtri(u)
    elif family == "t":
        z = special.stdtrit(float(p["nu"]), u)
    elif family == "gamma":
        z = special.gammaincinv(float(p["shape"]), u)
    elif family == "skew_normal":
        delta = float(p["delta"])
        z = _bisect(lambda v: special.ndtr(v) - 2.0 * special.owens_t(v, delta), u)
    else:
        raise ValueError(f"no stratified sampler for {family!r}")
    return float(p["mu"]) + float(p["sigma"]) * z
