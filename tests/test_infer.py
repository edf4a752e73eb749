import importlib.util
import json
import math
import os
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flexdist import base, cli, infer, skewsym, transform, twopiece
from tests import subprocess_env

# Frozen oracle values, computed once with mpmath at 40 digits.
LOG_PHI_0 = -0.9189385332046728            # ln(1/sqrt(2 pi))
LL_THREE_POINTS = -3.756815599614018       # 3 ln(1/sqrt(2 pi)) - 1
SIGMA_THREE_POINTS = 0.816496580927726     # sqrt(2/3)

BOUNDARY_SAMPLE = np.array([0.5, 1.1, 1.7, 2.0, 2.4, 3.0])


def _isf_sample(n, delta, seed, mu=0.0, sigma=1.0):
    p = twopiece.TwoPieceParams(base.normal_base(),
                                base.LocationScale(mu, sigma),
                                twopiece.IsfScaling(delta))
    return p.sample(n, base.make_rng(seed))


# ---------------------------------------------------------------- likelihood

def test_log_likelihood_single_point_at_normal_mode():
    val = infer.log_likelihood("normal", {"mu": 0.0, "sigma": 1.0}, [0.0])
    assert val == pytest.approx(LOG_PHI_0, abs=1e-14)


def test_log_likelihood_three_point_oracle():
    val = infer.log_likelihood("normal", {"mu": 0.0, "sigma": 1.0},
                               [-1.0, 0.0, 1.0])
    assert val == pytest.approx(LL_THREE_POINTS, abs=1e-13)


# each nested pair, with both scalings where the alternative is a two-piece
NESTINGS = [(null, alt, scaling) for null, alt in sorted(infer.NESTED_PAIRS)
            for scaling in (("isf", "epsilon") if infer._FAMILIES[alt].scaled else ("isf",))]


@pytest.mark.parametrize("null, alt, scaling", NESTINGS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_nested_pairs_nest(null, alt, scaling, data):
    # the alternative at coordinate 0 of the shapes the null lacks, where
    # lr_test embeds the null's fit, has the null's log-density, at points
    # near the location and out to +-1e150
    cfg = infer.FitConfig(scaling=scaling)
    params = {"mu": data.draw(st.floats(-1e3, 1e3)), "sigma": data.draw(st.floats(1e-3, 1e3))}
    if null == "t":
        params["nu"] = data.draw(st.floats(infer._NU.lo, infer._NU.hi))
    spec = infer._FAMILIES[alt]
    nested = {**spec.decode(np.zeros(spec.n_free), cfg), **params, "scaling": scaling}
    near = data.draw(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=10))
    far = data.draw(st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=10))
    x = np.array([params["mu"] + params["sigma"] * z for z in near] + far)
    want = infer.distribution_for(null, params).log_pdf(x)
    np.testing.assert_allclose(infer.distribution_for(alt, nested).log_pdf(x), want,
                               rtol=1e-13, atol=0.0)


def test_log_likelihood_underflow_propagates_minus_inf():
    val = infer.log_likelihood("normal", {"mu": 0.0, "sigma": 1.0}, [1e300])
    assert val == -math.inf


def test_log_likelihood_rejects_bad_data():
    with pytest.raises(ValueError):
        infer.log_likelihood("normal", {"mu": 0.0, "sigma": 1.0}, [])
    with pytest.raises(ValueError):
        infer.log_likelihood("normal", {"mu": 0.0, "sigma": 1.0},
                             [1.0, math.nan])


def test_distribution_for_rejects_unknown_family():
    with pytest.raises(ValueError):
        infer.distribution_for("weibull", {"mu": 0.0, "sigma": 1.0})


def test_missing_parameters_raise_value_error():
    with pytest.raises(ValueError, match="lack nu$"):
        infer.distribution_for("t", {"mu": 0.0, "sigma": 1.0})
    with pytest.raises(ValueError, match="lack sigma, delta$"):
        infer.log_likelihood("skew_normal", {"mu": 0.0}, [0.0])


@pytest.mark.parametrize("family", ["twopiece_normal", "twopiece_t"])
def test_distribution_for_checks_the_two_piece_scaling(family):
    params = {"mu": 0.0, "sigma": 1.0, "delta": 0.5, "nu": 4.0}
    isf = infer.distribution_for(family, params)   # absent: isf
    assert isinstance(isf.scheme, twopiece.IsfScaling)
    for scaling, scheme in (("isf", twopiece.IsfScaling),
                            ("epsilon", twopiece.EpsilonScaling)):
        d = infer.distribution_for(family, {**params, "scaling": scaling})
        assert isinstance(d.scheme, scheme)
    with pytest.raises(ValueError, match="isf or epsilon"):
        infer.distribution_for(family, {**params, "scaling": "epsilom"})


# every family of the catalogue, both two-piece scalings included
CATALOGUE = [
    ("normal", {"mu": 0.5, "sigma": 2.0}),
    ("logistic", {"mu": 0.5, "sigma": 2.0}),
    ("t", {"mu": 0.5, "sigma": 2.0, "nu": 2.0}),
    ("skew_normal", {"mu": 0.5, "sigma": 2.0, "delta": 2.0}),
    ("skew_t", {"mu": 0.5, "sigma": 2.0, "nu": 2.0, "delta": 2.0}),
    ("sas_normal", {"mu": 0.5, "sigma": 2.0, "delta": -1.0, "eta": 0.5}),
    ("gh_normal", {"mu": 0.5, "sigma": 2.0, "g": 0.5, "h": 0.2}),
    ("k_normal", {"mu": 0.5, "sigma": 2.0, "eta": 0.5}),
    ("twopiece_normal", {"mu": 0.5, "sigma": 2.0, "delta": 2.0, "scaling": "isf"}),
    ("twopiece_normal", {"mu": 0.5, "sigma": 2.0, "delta": 0.6, "scaling": "epsilon"}),
    ("twopiece_t", {"mu": 0.5, "sigma": 2.0, "nu": 2.0, "delta": 0.5, "scaling": "isf"}),
    ("twopiece_t", {"mu": 0.5, "sigma": 2.0, "nu": 2.0, "delta": -0.5,
                    "scaling": "epsilon"}),
]


def test_quantile_domain_rule_across_the_catalogue():
    # levels 0 and 1 give the ends of the support, NaN gives NaN, and a
    # level outside [0, 1] raises, for scalars and arrays alike
    assert {f for f, _ in CATALOGUE} >= set(infer.FAMILY_ORDER)
    for family, params in CATALOGUE:
        d = infer.distribution_for(family, params)
        assert d.quantile(0.0) == -math.inf, family
        assert d.quantile(1.0) == math.inf, family
        assert math.isnan(d.quantile(math.nan)), family
        out = d.quantile(np.array([0.0, 0.25, math.nan, 1.0]))
        assert out[0] == -math.inf and out[3] == math.inf, family
        assert math.isnan(out[2]) and math.isfinite(out[1]), family
        assert d.cdf(out[1]) == pytest.approx(0.25, abs=1e-9), family
        for bad in (-0.1, 1.5, -math.inf, math.inf):
            with pytest.raises(ValueError):
                d.quantile(bad)
            with pytest.raises(ValueError):
                d.quantile(np.array([0.5, bad]))


@pytest.mark.parametrize(
    "family, params",
    CATALOGUE + [("skew_normal", {"mu": 0.5, "sigma": 2.0, "delta": 0.0})],
    ids=lambda v: v if isinstance(v, str) else "-".join(str(p) for p in v.values()))
def test_non_finite_points(family, params):
    # the density vanishes at +-inf and the cdf reaches its limits there;
    # NaN gives NaN, for scalars and arrays alike
    assert {f for f, _ in CATALOGUE} == set(infer._FAMILIES)
    d = infer.distribution_for(family, params)
    ends = np.array([-np.inf, np.inf])
    with np.errstate(all="ignore"):
        assert d.log_pdf(-np.inf) == -np.inf and d.log_pdf(np.inf) == -np.inf
        assert np.array_equal(d.log_pdf(ends), [-np.inf, -np.inf])
        assert np.array_equal(d.pdf(ends), [0.0, 0.0])
        assert np.isnan(d.log_pdf(np.nan))
        out = d.cdf(np.array([-np.inf, np.inf, np.nan]))
        assert out[0] == 0.0 and out[1] == 1.0 and np.isnan(out[2])
        assert d.cdf(-np.inf) == 0.0 and d.cdf(np.inf) == 1.0
        assert math.isnan(d.cdf(np.nan))


# ------------------------------------------------------- the coordinate maps

REPORT_ORDER = {
    "normal": ("mu", "sigma"),
    "logistic": ("mu", "sigma"),
    "t": ("mu", "sigma", "nu"),
    "skew_normal": ("mu", "sigma", "delta"),
    "skew_t": ("mu", "sigma", "nu", "delta"),
    "sas_normal": ("mu", "sigma", "delta", "eta"),
    "twopiece_normal": ("mu", "sigma", "delta"),
    "twopiece_t": ("mu", "sigma", "delta", "nu"),
}


def _reference_boundary(family, params):
    """The per-family boundary rules the family table replaced."""
    delta = params.get("delta")
    if family in ("skew_normal", "skew_t"):
        return 200.0 - abs(delta) <= 1e-4
    if family == "sas_normal":
        return 50.0 - abs(delta) <= 1e-4
    if family in ("twopiece_normal", "twopiece_t"):
        if params.get("scaling", "isf") == "epsilon":
            return 1.0 - abs(delta) <= 1e-4
        return abs(math.log(delta)) >= math.log(1e4) - 1e-4
    return False


def _near_cap(family, scaling, e, sign):
    """A frontier shape's value e inside its cap (on the log scale for ISF)."""
    if family.startswith("twopiece") and scaling == "epsilon":
        # kept inside the map's cap, 1 - 1e-6, while the rule's edge is 1
        return sign * (1.0 - 2e-6 - e)
    if family.startswith("twopiece"):
        return math.exp(sign * (math.log(1e4) - e))
    return sign * ((200.0 if family.startswith("skew") else 50.0) - e)


def _shape_values(family, name, scaling):
    """Natural values inside the box of one shape, half of them near its cap."""
    if name == "nu":
        return st.floats(0.5, 200.0)
    if name == "eta":
        return st.floats(1e-3, 1e3)
    near = st.builds(partial(_near_cap, family, scaling), st.floats(0.0, 3e-4),
                     st.sampled_from((-1.0, 1.0)))
    if family.startswith("twopiece") and scaling == "epsilon":
        return st.floats(-0.9999, 0.9999, allow_subnormal=False) | near
    if family.startswith("twopiece"):
        return st.floats(-math.log(1e4), math.log(1e4)).map(math.exp) | near
    cap = 200.0 if family.startswith("skew") else 50.0
    return st.floats(-cap, cap, allow_subnormal=False) | near


@pytest.mark.parametrize("scaling", ["isf", "epsilon"])
@pytest.mark.parametrize("family", sorted(REPORT_ORDER))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_coordinate_maps_round_trip_and_flag_the_frontier(family, scaling, data):
    assert set(REPORT_ORDER) == set(infer.FAMILY_ORDER)
    spec, cfg = infer._FAMILIES[family], infer.FitConfig(scaling=scaling)
    params = {"mu": data.draw(st.floats(-1e3, 1e3)), "sigma": data.draw(st.floats(1e-3, 1e3))}
    for name in REPORT_ORDER[family][2:]:
        params[name] = data.draw(_shape_values(family, name, scaling), label=name)
    back = spec.decode(spec.encode(params, cfg), cfg)
    assert tuple(back) == REPORT_ORDER[family]
    for name, value in params.items():
        assert back[name] == pytest.approx(value, rel=1e-12, abs=0.0), name
    if spec.scaled:
        params["scaling"] = scaling
    assert spec.at_boundary(params, cfg) == _reference_boundary(family, params)


@pytest.mark.parametrize("scaling", ["isf", "epsilon"])
@pytest.mark.parametrize("family", ["skew_normal", "skew_t", "sas_normal",
                                    "twopiece_normal", "twopiece_t"])
def test_boundary_flag_near_each_cap(family, scaling):
    # a grid fine enough to separate the epsilon rule's edge 1 from its cap
    spec, cfg = infer._FAMILIES[family], infer.FitConfig(scaling=scaling)
    flags = set()
    for e in np.linspace(0.0, 3e-4, 601):
        for sign in (-1.0, 1.0):
            params = {"delta": _near_cap(family, scaling, float(e), sign), "scaling": scaling}
            flag = spec.at_boundary(params, cfg)
            assert flag == _reference_boundary(family, params), (e, sign)
            flags.add(flag)
    assert flags == {False, True}


# ------------------------------------------------------------------- simplex

def test_nelder_mead_shifted_quadratic():
    res = infer.nelder_mead(
        lambda v: (v[0] - 1.5) ** 2 + 2.0 * (v[1] + 0.5) ** 2 + 3.0,
        [0.0, 0.0], [0.5, 0.5])
    assert isinstance(res, infer.SimplexResult)
    assert res.converged
    assert 0 < res.iterations < 400
    assert res.x == pytest.approx([1.5, -0.5], abs=1e-6)
    assert res.fun == pytest.approx(3.0, abs=1e-10)


def test_nelder_mead_treats_nan_as_infinite():
    # NaN left of 0: a NaN vertex must lose every comparison
    def fn(v):
        return math.nan if v[0] < 0.0 else (v[0] - 2.0) ** 2

    res = infer.nelder_mead(fn, [0.5], [-1.0], maxiter=200)
    assert res.converged
    assert res.x[0] == pytest.approx(2.0, abs=1e-6)
    assert math.isfinite(res.fun)
    # with no steps taken the NaN vertex is still there and must not win
    first = infer.nelder_mead(fn, [0.5], [-1.0], maxiter=0)
    assert (first.x[0], first.fun, first.iterations) == (0.5, 2.25, 0)


def test_nelder_mead_stops_at_maxiter():
    res = infer.nelder_mead(lambda v: float(v @ v), [3.0, -2.0], [0.1, 0.1],
                            maxiter=5)
    assert res.iterations == 5
    assert not res.converged
    with pytest.raises(ValueError):
        infer.nelder_mead(lambda v: 0.0, [0.0, 0.0], [0.1])


# ------------------------------------------------------------------- fitting

def test_fit_normal_closed_form():
    fit = infer.fit_mle("normal", [-1.0, 0.0, 1.0])
    assert fit.params["mu"] == pytest.approx(0.0, abs=1e-15)
    assert fit.params["sigma"] == pytest.approx(SIGMA_THREE_POINTS, rel=1e-14)
    assert fit.converged
    assert not fit.boundary_flag
    ll = infer.log_likelihood("normal", fit.params, [-1.0, 0.0, 1.0])
    assert fit.loglik == pytest.approx(ll, rel=1e-14)


def test_fit_result_information_criteria_identities():
    rng = base.make_rng(10)
    data = rng.standard_normal(500)
    for fam, p in (("normal", 2), ("skew_normal", 3), ("twopiece_normal", 3),
                   ("t", 3), ("skew_t", 4), ("sas_normal", 4)):
        fit = infer.fit_mle(fam, data)
        assert fit.aic == 2.0 * p - 2.0 * fit.loglik
        assert fit.bic == p * math.log(500) - 2.0 * fit.loglik
        assert fit.n == 500


def test_fit_normal_consistency():
    rng = base.make_rng(11)
    data = 2.0 + 3.0 * rng.standard_normal(10_000)
    fit = infer.fit_mle("normal", data)
    assert abs(fit.params["mu"] - 2.0) < 0.1
    assert abs(fit.params["sigma"] - 3.0) < 0.1


def test_fit_skew_normal_nests_normal():
    rng = base.make_rng(12)
    data = rng.standard_normal(600)
    ll_n = infer.fit_mle("normal", data).loglik
    ll_s = infer.fit_mle("skew_normal", data).loglik
    assert 2.0 * (ll_s - ll_n) >= -1e-8


def test_fit_two_piece_isf_consistency():
    data = _isf_sample(10_000, 2.0, seed=13)
    fit = infer.fit_mle("twopiece_normal", data)
    assert fit.params["scaling"] == "isf"
    assert abs(fit.params["delta"] - 2.0) < 0.3
    assert fit.converged
    # golden-section evaluations only, not the candidate grid
    assert 0 < fit.iterations <= 100


def test_fit_two_piece_epsilon_scaling():
    p = twopiece.TwoPieceParams(base.normal_base(),
                                base.LocationScale(1.0, 2.0),
                                twopiece.EpsilonScaling(0.6))
    data = p.sample(8_000, base.make_rng(14))
    cfg = infer.FitConfig(scaling="epsilon")
    fit = infer.fit_mle("twopiece_normal", data, cfg)
    assert fit.params["scaling"] == "epsilon"
    assert abs(fit.params["delta"] - 0.6) < 0.1
    assert abs(fit.params["mu"] - 1.0) < 0.15


# an interior sample, and a frontier one whose optimum puts mu on the sample
# minimum and the asymmetry on its cap
TWO_PIECE_SAMPLES = {
    "interior": lambda: _isf_sample(3_000, 2.0, seed=15),
    "frontier": lambda: 2.0 + np.abs(np.random.default_rng([91, 3]).standard_normal(200)),
}


@pytest.mark.parametrize("sample", sorted(TWO_PIECE_SAMPLES))
@pytest.mark.parametrize("scaling", ["isf", "epsilon"])
def test_fit_two_piece_profile_matches_simplex(scaling, sample):
    data = TWO_PIECE_SAMPLES[sample]()
    cfg = infer.FitConfig(scaling=scaling)
    prof = infer.fit_mle("twopiece_normal", data, cfg)
    spec = replace(infer._FAMILIES["twopiece_normal"], exact=None)
    bfgs = infer._fit(spec, data, cfg)
    assert prof.loglik >= bfgs.loglik - 1e-6
    assert prof.boundary_flag == bfgs.boundary_flag == (sample == "frontier")
    for key in ("mu", "sigma", "delta"):
        assert prof.params[key] == pytest.approx(bfgs.params[key],
                                                 abs=2e-3)


def _two_piece_reference(row, cfg):
    """Reference profile fit of one row, in scalar arithmetic: the closed form
    under the scaling's box, bisect for the points below and above mu, and a
    scalar safeguarded Newton solve of the profile's stationarity equation
    beside the best candidate.  Returns mu, nll, Newton steps, and delta and
    sigma in the scaling's form."""
    from bisect import bisect_left, bisect_right

    xs = np.sort(row)
    n = xs.size
    xl = xs.tolist()
    # prefix sums for the points below mu and suffix sums for those above it
    p1 = np.concatenate(([0.0], np.cumsum(xs))).tolist()
    p2 = np.concatenate(([0.0], np.cumsum(xs * xs))).tolist()
    q1 = np.concatenate((np.cumsum(xs[::-1])[::-1], [0.0])).tolist()
    q2 = np.concatenate((np.cumsum((xs * xs)[::-1])[::-1], [0.0])).tolist()
    box = infer._ASYMMETRY[cfg.scaling]

    def ratio(left, right):
        # (R/L)^(1/6), the unclipped ISF delta
        if left <= 0.0:
            return math.inf if right > 0.0 else math.nan
        return (right / left) ** (1.0 / 6.0)

    def profile(left, right):
        delta = min(max(ratio(left, right), box.lo), box.hi)
        var = (delta * delta * left + right / (delta * delta)) / n
        ll = (n * math.log(2.0 / (delta + 1.0 / delta)) - 0.5 * n * math.log(var)
              - (0.5 * n + n * base.LOG_SQRT_TWO_PI))
        return ll, delta, math.sqrt(var)

    def sides(mu, k, j):
        # L and R at mu of the first k points and all but the first j, with
        # their slopes in mu and counts
        return ((p2[k] - 2.0 * mu * p1[k] + k * mu * mu, q2[j] - 2.0 * mu * q1[j] + (n - j) * mu * mu),
                (2.0 * (k * mu - p1[k]), 2.0 * ((n - j) * mu - q1[j])), (k, n - j))

    def at(mu):
        k, j = bisect_left(xl, mu), bisect_right(xl, mu)
        return profile(*(max(v, 0.0) for v in sides(mu, k, j)[0]))

    def psi(h, side):
        # the stationarity equation delta^2 L' + R' / delta^2 at best + h,
        # its slope, and L and R
        value, slope, count = side
        left, right = (max(v + h * (g + c * h), 0.0) for v, g, c in zip(value, slope, count))
        dl, dr = (g + 2.0 * c * h for g, c in zip(slope, count))
        root = ratio(left, right)
        delta = min(max(root, box.lo), box.hi)
        d2 = delta * delta
        curv = 2.0 * (count[0] * d2 + count[1] / d2)
        if box.lo < root < box.hi:
            curv += (dl * d2 - dr / d2) * (dr / right - dl / left) / 3.0
        noise = 4.0 * float(np.spacing(abs(d2 * dl) + abs(dr / d2)))
        return d2 * dl + dr / d2, curv, (left, right), noise

    cands = np.unique(np.concatenate((xs, 0.5 * (xs[:-1] + xs[1:]), [np.mean(xs)])))
    ll_c = [at(float(c))[0] for c in cands]
    i = int(np.argmax(ll_c))
    best = float(cands[i])
    lo, hi = float(cands[max(i - 1, 0)]), float(cands[min(i + 1, cands.size - 1)])
    below, upto = bisect_left(xl, best), bisect_right(xl, best)
    left_of, right_of = sides(best, below, below), sides(best, upto, upto)
    # the side of best where the profile rises, bracketed in h = mu - best
    if psi(0.0, right_of)[0] < 0.0:
        side, a, b = right_of, 0.0, hi - best
    elif psi(0.0, left_of)[0] > 0.0:
        side, a, b = left_of, lo - best, 0.0
    else:
        side = None
    tol = 4.0 * float(np.spacing(max(abs(lo), abs(hi))))
    h, steps = 0.0, 0
    if side is not None:
        value, curv, *_ = psi(0.0, side)
        while True:
            step = h - value / curv
            if not (curv > 0.0 and a < step < b):
                step = 0.5 * (a + b)
            moved = abs(step - h)
            h, steps = step, steps + 1
            value, curv, _, noise = psi(h, side)
            if value < 0.0:
                a = h
            elif value > 0.0:
                b = h
            if not abs(value) > noise or moved <= tol or b - a <= tol or steps == 100:
                break
    mu = best
    ll, delta, sigma = at(best)
    if side is not None:
        found = profile(*psi(h, side)[2])
        if found[0] >= ll:
            mu, (ll, delta, sigma) = best + h, found
    if cfg.scaling == "epsilon":
        # the same law in epsilon's form: delta = tanh t and sigma cosh t at
        # t = log of the ISF delta
        t = math.log(delta)
        delta, sigma = math.tanh(t), sigma * math.cosh(t)
    return mu, -ll, steps, delta, sigma


def _two_piece_rows_battery(n, rng):
    """Rows of n points: normal, gamma, all-positive, all-negative, rounded
    to 0.1 (ties) and t_3, standardized as fits standardize them."""
    x = np.array([rng.standard_normal(n), rng.gamma(2.0, size=n),
                  np.abs(rng.standard_normal(n)) + 0.1,
                  -np.abs(rng.standard_normal(n)) - 0.1,
                  np.round(rng.standard_normal(n), 1),
                  base.student_base(3.0).sample(n, rng)])
    return infer._standardize(x)[0]


@pytest.mark.parametrize("scaling", ["isf", "epsilon"])
def test_two_piece_profile_matches_the_per_row_reference(scaling):
    cfg = infer.FitConfig(scaling=scaling)
    spec = infer._FAMILIES["twopiece_normal"]
    rng = base.make_rng(1100)
    for n in (3, 4, 9, 60, 400, 3000):
        w = _two_piece_rows_battery(n, rng)
        fit = infer._fit_rows(spec, w, cfg)
        for i, row in enumerate(w):
            mu, nll, evals, delta, sigma = _two_piece_reference(row, cfg)
            span = row.max() - row.min()
            assert abs(fit.t[i, 0] - mu) <= 1e-7 * span, (n, i)
            assert abs(fit.nll[i] - nll) <= 1e-9, (n, i)
            assert fit.iterations[i] == evals, (n, i)
            params = spec.decode(fit.t[i], cfg)
            assert params["sigma"] == pytest.approx(sigma, rel=1e-9, abs=1e-12), (n, i)
            assert params["delta"] == pytest.approx(delta, rel=1e-9), (n, i)
    # the all-positive row's asymmetry lies at its cap
    x = np.abs(base.make_rng(1101).standard_normal(200)) + 0.1
    assert infer.fit_mle("twopiece_normal", x, cfg).boundary_flag


@pytest.mark.parametrize("scaling", ["isf", "epsilon"])
def test_two_piece_rows_fit_each_row_as_alone(scaling):
    cfg = infer.FitConfig(scaling=scaling)
    spec = infer._FAMILIES["twopiece_normal"]
    w = _two_piece_rows_battery(80, base.make_rng(1102))
    batch = infer._fit_rows(spec, w, cfg)
    for i in range(w.shape[0]):
        alone = infer._fit_rows(spec, w[i:i + 1], cfg)
        assert np.array_equal(batch.t[i], alone.t[0]), i
        assert batch.nll[i] == alone.nll[0] and batch.iterations[i] == alone.iterations[0], i


def _frontier_battery():
    """24 samples, default_rng([93, i]): normal, t_3, gamma(2) and 2 + |N|
    draws, three consecutive i each, at n = 50, 200 and 2 000 in turn."""
    laws = (lambda rng, n: rng.standard_normal(n), lambda rng, n: rng.standard_t(3.0, size=n),
            lambda rng, n: rng.gamma(2.0, size=n), lambda rng, n: 2.0 + np.abs(rng.standard_normal(n)))
    return {i: laws[i // 3 % 4](np.random.default_rng([93, i]), (50, 200, 2000)[i % 3])
            for i in range(24)}


@pytest.mark.parametrize("scaling", ["isf", "epsilon"])
def test_two_piece_profile_is_never_below_bfgs(scaling):
    # the profile is exact, so BFGS on the same model (no exact fitter)
    # never ends above it beyond the rounding of the reported loglik
    cfg = infer.FitConfig(scaling=scaling)
    spec = replace(infer._FAMILIES["twopiece_normal"], exact=None)
    for i, x in _frontier_battery().items():
        for y in (x, -x):
            prof, bfgs = infer.fit_mle("twopiece_normal", y, cfg), infer._fit(spec, y, cfg)
            assert prof.loglik >= bfgs.loglik - 1e-14 * abs(bfgs.loglik), i
            assert prof.boundary_flag == bfgs.boundary_flag, i
            if i in (10, 11) and scaling == "epsilon":
                # the frontier peak lies 4e-11 and 4e-10 inside the sample's
                # edge (the minimum of x, the maximum of -x), off the grid
                edge = y.min() if y is x else y.max()
                assert 0.0 < abs(prof.params["mu"] - edge) < 1e-9, i


def test_fit_t_recovers_tail_index():
    rng = base.make_rng(16)
    data = base.student_base(4.0).sample(6_000, rng)
    fit = infer.fit_mle("t", data)
    assert 2.5 < fit.params["nu"] < 7.0
    assert abs(fit.params["mu"]) < 0.1


def test_fit_logistic_smoke():
    rng = base.make_rng(17)
    data = 1.0 + 0.5 * base.logistic_base().sample(4_000, rng)
    fit = infer.fit_mle("logistic", data)
    assert abs(fit.params["mu"] - 1.0) < 0.1
    assert abs(fit.params["sigma"] - 0.5) < 0.1


def test_fit_skew_t_recovers_shape():
    rng = base.make_rng(18)
    data = skewsym.SkewT(0.0, 1.0, 3.0, 2.0).sample(3_000, rng)
    fit = infer.fit_mle("skew_t", data)
    assert fit.params["delta"] > 0.8
    assert 1.5 < fit.params["nu"] < 6.0


def test_fit_sas_recovers_shape():
    p = transform.TransformParams(base.normal_base(),
                                  base.LocationScale(0.0, 1.0),
                                  transform.SasTransform(-1.0, 0.5))
    data = p.sample(4_000, base.make_rng(19))
    fit = infer.fit_mle("sas_normal", data)
    assert abs(fit.params["delta"] + 1.0) < 0.25
    assert abs(fit.params["eta"] - 0.5) < 0.15


def test_fit_validation_errors():
    with pytest.raises(ValueError):
        infer.fit_mle("gaussian", [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        infer.fit_mle("skew_normal", [1.0, 2.0, 3.0])   # below n_free + 1
    with pytest.raises(ValueError):
        infer.fit_mle("normal", [2.0, 2.0, 2.0, 2.0])   # zero variance
    with pytest.raises(ValueError):
        infer.fit_mle("normal", [1.0, np.nan, 2.0, 3.0])


def test_fit_config_validation():
    with pytest.raises(ValueError):
        infer.FitConfig(restarts=0)
    with pytest.raises(ValueError):
        infer.FitConfig(xatol=0.0)
    with pytest.raises(ValueError):
        infer.FitConfig(scaling="both")
    # None means 400 per free parameter; a cap below 1 would return the start
    for maxiter in (0, -3):
        with pytest.raises(ValueError, match="maxiter"):
            infer.FitConfig(maxiter=maxiter)
    # numpy integers are integers
    cfg = infer.FitConfig(restarts=np.int64(1), maxiter=np.int32(50))
    assert infer.fit_mle("logistic", BOUNDARY_SAMPLE, cfg).iterations > 0


@pytest.mark.parametrize("name, value, error", [
    ("xatol", math.nan, ValueError), ("fatol", math.inf, ValueError),
    ("xatol", -math.inf, ValueError),
    # a NaN cap stopped every run at its start, and a float restarts raised
    # TypeError only once a fit sliced its start list
    ("maxiter", math.nan, TypeError), ("maxiter", 10.0, TypeError), ("maxiter", True, TypeError),
    ("restarts", 2.5, TypeError), ("restarts", 2.0, TypeError), ("restarts", True, TypeError),
])
def test_fit_config_rejects_bad_values(name, value, error):
    with pytest.raises(error, match=name):
        infer.FitConfig(**{name: value})


def test_boundary_pathology_all_positive_sample():
    plain = infer.fit_mle("skew_normal", BOUNDARY_SAMPLE)
    assert plain.boundary_flag
    pen = infer.fit_mle_penalized_skew_normal(BOUNDARY_SAMPLE)
    assert not pen.boundary_flag
    assert np.isfinite(pen.params["delta"])
    assert abs(pen.params["delta"]) < 50.0


def test_boundary_flag_never_set_for_symmetric_families():
    rng = base.make_rng(20)
    data = rng.standard_normal(300)
    for fam in ("normal", "t", "logistic"):
        assert not infer.fit_mle(fam, data).boundary_flag


def test_penalized_agrees_with_plain_off_the_boundary():
    # at the delta = 0 singularity the profile loglik is flat to O(delta^6),
    # so the two argmaxes can drift apart for unlucky seeds; seed frozen
    rng = base.make_rng(0)
    data = rng.standard_normal(10_000)
    plain = infer.fit_mle("skew_normal", data)
    pen = infer.fit_mle_penalized_skew_normal(data)
    assert abs(plain.params["delta"] - pen.params["delta"]) < 0.05
    # with a strongly identified delta the agreement is robust
    skew_data = skewsym.SkewNormal(0.0, 1.0, 5.0).sample(
        10_000, base.make_rng(21))
    plain2 = infer.fit_mle("skew_normal", skew_data)
    pen2 = infer.fit_mle_penalized_skew_normal(skew_data)
    assert abs(plain2.params["delta"] - pen2.params["delta"]) < 0.5


def test_penalized_delta_sign_matches_sample_skewness():
    data = skewsym.SkewNormal(0.0, 1.0, 5.0).sample(10_000, base.make_rng(22))
    centered = data - data.mean()
    skew_sign = math.copysign(1.0, float(np.mean(centered ** 3)))
    pen = infer.fit_mle_penalized_skew_normal(data)
    assert math.copysign(1.0, pen.params["delta"]) == skew_sign
    assert skew_sign > 0.0


def test_penalized_reports_unpenalized_loglik():
    pen = infer.fit_mle_penalized_skew_normal(BOUNDARY_SAMPLE)
    ll = infer.log_likelihood("skew_normal", pen.params, BOUNDARY_SAMPLE)
    assert pen.loglik == pytest.approx(ll, rel=1e-12)


# every family with a frontier chase, under each scaling it takes, and the
# penalized skew-normal fit, which inherits the skew-normal's chase
CHASE_CASES = [("skew_normal", "isf"), ("penalized", "isf"), ("skew_t", "isf"),
               ("twopiece_t", "isf"), ("twopiece_t", "epsilon")]


def _chase_spec(family):
    return infer._PENALIZED_SKEW_NORMAL if family == "penalized" else infer._FAMILIES[family]


def _chase_battery(n):
    """50 rows of n points: normal, t_3, gamma(2), skew-normal (delta = 4)
    and all-positive samples, five of each, and their reflections."""
    rng = np.random.default_rng([94, n])
    laws = (rng.standard_normal, lambda k: rng.standard_t(3.0, size=k),
            lambda k: rng.gamma(2.0, size=k), lambda k: skewsym.SkewNormal(0.0, 1.0, 4.0).sample(k, rng),
            lambda k: 2.0 + np.abs(rng.standard_normal(k)))
    x = np.array([law(n) for _ in range(5) for law in laws])
    return infer._standardize(np.concatenate((x, -x)))[0]


def _forced_chases(spec, w, cfg, monkeypatch):
    """_fit_rows with every chase run, the gate's slack raised to inf."""
    with monkeypatch.context() as mp:
        mp.setattr(infer, "_FRONTIER_SLACK", math.inf)
        return infer._fit_rows(spec, w, cfg)


@pytest.mark.parametrize("family, scaling", CHASE_CASES)
def test_a_skipped_chase_never_beats_the_other_starts(family, scaling, monkeypatch):
    # where the family's frontier bound lies below the first round's best
    # fit, a chase run anyway ends no better than it, beyond 1e-9 relative;
    # the rows that keep the chase keep every bit
    spec, cfg = _chase_spec(family), infer.FitConfig(scaling=scaling)
    rows = 0
    for n in (6, 50, 200, 500):
        w = _chase_battery(n)
        ruled = infer._fit_rows(spec, w, cfg)
        forced = _forced_chases(spec, w, cfg, monkeypatch)
        # a chase that runs costs at least its start point's kernel row
        skip = ruled.kernel_rows < forced.kernel_rows
        assert np.all(forced.nll[skip] >= ruled.nll[skip] - 1e-9 * np.abs(ruled.nll[skip])), n
        for a, b in zip(ruled, forced):
            assert np.array_equal(a[~skip], b[~skip]), n
        assert np.all(ruled.iterations[skip] <= forced.iterations[skip])
        # every all-positive row and its reflection keeps the chase, and from
        # n = 50 on every normal row skips it
        assert not skip[4::5].any() and (n < 50 or skip[0::5].all()), n
        rows += len(w)
    assert rows >= 200


def _digest_datasets():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "output_digest.py")
    spec = importlib.util.spec_from_file_location("output_digest", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.datasets()


def _half_t_supremum(y):
    """The half-t frontier of distances y, sup over sigma and nu in _NU's box
    of n log 2 + sum log t_nu(y / sigma) - n log sigma, found numerically:
    the best of L-BFGS-B runs over (log sigma, log nu) from several starts."""
    from scipy.optimize import minimize

    n = y.size

    def nll(v):
        with np.errstate(all="ignore"):
            z = y * np.exp(-v[0])
            val = -(n * math.log(2.0) + base.t_logf(z, math.exp(v[1])).sum() - n * v[0])
        return val if np.isfinite(val) else 1e300

    box = [(None, None), (infer._NU.log_lo, infer._NU.log_hi)]
    pos = y[y > 0.0]
    scales = (np.max(pos), np.sqrt(np.mean((pos / pos.max()) ** 2)) * pos.max(), np.median(pos))
    return max(-minimize(nll, [math.log(s), math.log(nu)], method="L-BFGS-B", bounds=box).fun
               for s in scales for nu in (0.6, 5.0, 150.0))


def _half_normal_supremum(y):
    """The half-normal frontier of distances y, sup over sigma of n log 2 +
    sum log phi(y / sigma) - n log sigma, found numerically: the best of
    Brent runs over log sigma about several scales of the data."""
    from scipy.optimize import minimize_scalar

    n, pos = y.size, y[y > 0.0]

    def nll(ls):
        with np.errstate(all="ignore"):
            val = -(n * math.log(2.0) + base.normal_logf(y * math.exp(-ls)).sum() - n * ls)
        return val if np.isfinite(val) else 1e300

    top = pos.max()
    scales = (top, np.sqrt(np.mean((pos / top) ** 2)) * top, np.median(pos))
    return max(-minimize_scalar(nll, bracket=(math.log(s) - 1.0, math.log(s))).fun for s in scales)


@st.composite
def _one_sided_samples(draw):
    """Distances from a sample extreme: half-normal, half-t or exponential
    draws, some of them tied at 0 with the extreme, at scales 1e-100 to
    1e100."""
    n = draw(st.integers(3, 2000))
    law = draw(st.sampled_from(["half_normal", "half_t", "exponential"]))
    nu = draw(st.floats(0.5, 200.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = {"half_normal": lambda: np.abs(rng.standard_normal(n)),
         "half_t": lambda: np.abs(rng.standard_t(nu, size=n)),
         "exponential": lambda: rng.exponential(size=n)}[law]()
    y[: draw(st.integers(1, max(1, n // 4)))] = 0.0
    return y * 10.0 ** draw(st.floats(-100.0, 100.0))


@pytest.mark.parametrize("bound, supremum", [
    (infer._half_t_frontier, _half_t_supremum), (infer._half_normal_frontier, _half_normal_supremum),
], ids=["half_t", "half_normal"])
@settings(max_examples=40, deadline=None)
@given(y=_one_sided_samples())
def test_the_half_t_frontier_bound_is_never_below_the_frontier(bound, supremum, y):
    sup = supremum(y)
    tol = 1e-12 * (abs(sup) + y.size)
    for target in (-math.inf, sup - 1e-6 * abs(sup), sup + 1e-6 * abs(sup), math.inf):
        upper, witness = bound(y[None, :], np.array([target]))
        # the bound holds whatever the target, which only says when to stop
        assert upper[0] >= sup - tol, target
        assert witness[0] <= upper[0], target


def test_a_frontier_with_too_many_points_at_the_extreme_is_unbounded():
    # with a third of the points at the extreme, the half-t at nu = 0.5 grows
    # without bound as sigma -> 0, so no target rules the chase out
    y = np.abs(base.make_rng(95).standard_normal(30))
    y[:10] = 0.0
    upper, witness = infer._half_t_frontier(y[None, :], np.array([1e300]))
    assert upper[0] == witness[0] == math.inf
    w = np.concatenate((np.zeros(10), y[10:]))[None, :]
    assert infer._frontier_can_win(infer._half_t_frontier, w, np.zeros(1), np.array([1e300])).all()


def test_the_chases_still_run_on_frontier_samples(monkeypatch):
    # every family's frontier can win on these samples, so every chase runs,
    # and each fit keeps every bit of a fit that runs every chase
    data = _digest_datasets()
    for x, delta in ((BOUNDARY_SAMPLE, -200.0), (data["positive_200"], 200.0),
                     (data["negative_200"], -200.0), (data["positive_10000"], 200.0)):
        w = infer._standardize(x[None, :])[0]
        for family, scaling in CHASE_CASES:
            spec, cfg = _chase_spec(family), infer.FitConfig(scaling=scaling)
            ruled = infer._fit_rows(spec, w, cfg)
            forced = _forced_chases(spec, w, cfg, monkeypatch)
            for a, b in zip(ruled, forced):
                assert np.array_equal(a, b), (family, scaling, x.size)
        plain, pen = infer.fit_mle("skew_normal", x), infer.fit_mle_penalized_skew_normal(x)
        # at n = 10^4 the penalty, under 10 nats at the cap, no longer keeps
        # the penalized fit off the frontier
        assert plain.boundary_flag and pen.boundary_flag == (x.size > 200)
        assert plain.params["delta"] == pytest.approx(delta, abs=1e-4)


def _fit_workload_samples(size, monkeypatch):
    """The first copy of each law of the benchmark's fit workload at one size
    (large, n = 10^4, or small, n = 200), at seed 1, drawn as
    perfbench/workloads.py draws them."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    import laws
    import workloads

    rng, out = workloads.rng_for(1, 1), []
    for name, n, copies, _ in workloads.Fit.SIZES:
        for law, p in workloads.Fit.LAWS:
            for c in range(copies):
                x = laws.stratified_draw(law, p, n, rng)
                if name == size and c == 0:
                    out.append(x)
    return out


@pytest.mark.parametrize("size", ["small", "large"])
def test_fit_families_runs_one_round_where_no_chase_can_win(size, monkeypatch):
    calls, verdicts = [], []
    run, can_win = infer._run_batches, infer._frontier_can_win
    monkeypatch.setattr(infer, "_run_batches", lambda *a: calls.append(1) or run(*a))
    monkeypatch.setattr(infer, "_frontier_can_win",
                        lambda *a: verdicts.append(can_win(*a)) or verdicts[-1])
    for x in _fit_workload_samples(size, monkeypatch):
        calls.clear()
        infer.fit_families(infer.FAMILY_ORDER, x)
        assert len(calls) == 1
    # each sample's skew_normal, skew_t and twopiece_t rows asked, and no
    # chase survived
    assert len(verdicts) == 12 and not np.concatenate(verdicts).any()


def test_fit_equivariance_under_affine_maps():
    data = skewsym.SkewNormal(1.0, 2.0, 1.5).sample(400, base.make_rng(5))
    fits = {fam: infer.fit_mle(fam, data) for fam in infer.FAMILY_ORDER}
    # the scales 1e200 and 1e-200 overflow or underflow a naive variance
    for a, b in ((2.5, -4.0), (1e200, 0.0), (1e-200, 0.0)):
        shifted = a * data + b
        for fam, f0 in fits.items():
            f1 = infer.fit_mle(fam, shifted)
            assert f1.params["mu"] == pytest.approx(
                a * f0.params["mu"] + b, rel=1e-6, abs=0.0), (fam, a)
            assert f1.params["sigma"] == pytest.approx(
                a * f0.params["sigma"], rel=1e-6, abs=0.0), (fam, a)
            shape_keys = [k for k in f0.params
                          if k not in ("mu", "sigma", "scaling")]
            for key in shape_keys:
                assert f1.params[key] == pytest.approx(
                    f0.params[key], abs=1e-4), (fam, a, key)


# laws of the reflection property: 2 + |N(0, 1)| puts the two-piece optimum
# on the frontier, mu on the sample minimum of x and the maximum of -x
REFLECTION_LAWS = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "t3": lambda rng, n: rng.standard_t(3.0, size=n),
    "gamma": lambda rng, n: rng.gamma(2.0, size=n),
    "positive": lambda rng, n: 2.0 + np.abs(rng.standard_normal(n)),
}
# every family the likelihood fits, under each scaling it takes, but
# twopiece_t, whose kinks in mu make its fits depend on the optimizer's path
REFLECTION_CASES = [(family, scaling) for family in infer.FAMILY_ORDER if family != "twopiece_t"
                    for scaling in (("isf", "epsilon") if infer._FAMILIES[family].scaled
                                    else ("isf",))]


def _reflected(family, scaling, name, value):
    """A shape's value in the fit of -x, given its value in the fit of x."""
    if name in ("nu", "eta"):
        return value
    return 1.0 / value if family.startswith("twopiece") and scaling == "isf" else -value


@pytest.mark.parametrize("family, scaling", REFLECTION_CASES)
@settings(max_examples=10, deadline=None)
@given(law=st.sampled_from(sorted(REFLECTION_LAWS)), seed=st.integers(0, 2**32 - 1),
       n=st.sampled_from((50, 200)))
@example(law="positive", seed=3, n=200)
@example(law="positive", seed=7, n=200)
def test_fits_reflect_with_the_data(family, scaling, law, seed, n):
    # fit_mle(-x) gives -mu, the same sigma, the reflected shapes and the
    # same boundary flag and log-likelihood; mu within 1e-7 of the sample's
    # range and sigma and the shapes within 1e-6, the reach of the
    # golden-section search the two-piece profile's Newton refine replaced
    x = REFLECTION_LAWS[law](np.random.default_rng([91, seed]), n)
    cfg = infer.FitConfig(scaling=scaling)
    fit, flip = infer.fit_mle(family, x, cfg), infer.fit_mle(family, -x, cfg)
    assert flip.loglik == pytest.approx(fit.loglik, rel=1e-9, abs=0.0)
    assert flip.boundary_flag == fit.boundary_flag
    assert flip.params["mu"] == pytest.approx(-fit.params["mu"], rel=0.0, abs=1e-7 * np.ptp(x))
    assert flip.params["sigma"] == pytest.approx(fit.params["sigma"], rel=1e-6, abs=0.0)
    for name in REPORT_ORDER[family][2:]:
        assert flip.params[name] == pytest.approx(
            _reflected(family, scaling, name, fit.params[name]), rel=1e-6, abs=1e-6), name


def test_fit_reproducibility_bit_identical():
    data = skewsym.SkewNormal(0.0, 1.0, 2.0).sample(500, base.make_rng(30))
    cfg = infer.FitConfig()
    f0 = infer.fit_mle("skew_normal", data, cfg)
    f1 = infer.fit_mle("skew_normal", data, cfg)
    assert f0 == f1


# ------------------------------------------------------------ gh quantile fit

def test_fit_gh_quantile_normal_limit():
    p = transform.TransformParams(base.normal_base(),
                                  base.LocationScale(0.0, 1.0),
                                  transform.GhTransform(0.0, 0.0))
    data = p.sample(10_000, base.make_rng(40))
    fit = infer.fit_gh_quantile(data)
    assert abs(fit.g) < 0.1
    assert abs(fit.h) < 0.05
    assert abs(fit.mu) < 0.05
    assert abs(fit.sigma - 1.0) < 0.1
    assert fit.n == 10_000


def test_fit_gh_quantile_recovers_parameters():
    p = transform.TransformParams(base.normal_base(),
                                  base.LocationScale(0.0, 1.0),
                                  transform.GhTransform(0.5, 0.2))
    data = p.sample(10_000, base.make_rng(41))
    fit = infer.fit_gh_quantile(data)
    assert abs(fit.g - 0.5) < 0.1
    assert abs(fit.h - 0.2) < 0.1


def test_fit_gh_quantile_reflection_flips_g():
    rng = base.make_rng(42)
    p = transform.TransformParams(base.normal_base(),
                                  base.LocationScale(0.0, 1.0),
                                  transform.GhTransform(0.5, 0.2))
    data = p.sample(5_000, rng)
    fit = infer.fit_gh_quantile(data)
    flipped = infer.fit_gh_quantile(-data)
    assert flipped.g == pytest.approx(-fit.g, abs=1e-12)
    assert flipped.h == pytest.approx(fit.h, abs=1e-12)
    assert flipped.mu == pytest.approx(-fit.mu, abs=1e-12)


def test_fit_gh_quantile_validation():
    with pytest.raises(ValueError):
        infer.fit_gh_quantile(np.arange(30, dtype=float))   # n below 50
    with pytest.raises(ValueError):
        infer.fit_gh_quantile(np.zeros(100))                # tied quantiles


# -------------------------------------------------------------- model_select

def test_model_select_single_fit():
    fit = infer.fit_mle("normal", [-1.0, 0.0, 1.0])
    assert infer.model_select([fit]) == [fit]


def test_model_select_prefers_fewer_parameters_on_near_ties():
    # exactly symmetric data pins the skew fit near delta = 0; the loglik
    # gain is far below the AIC penalty, so the 2-parameter normal wins
    rng = base.make_rng(50)
    half = rng.standard_normal(200)
    data = np.concatenate([half, -half])
    fn = infer.fit_mle("normal", data)
    fs = infer.fit_mle("skew_normal", data)
    assert fs.loglik == pytest.approx(fn.loglik, abs=1e-3)
    rank = infer.model_select([fs, fn])
    assert rank[0].family == "normal"
    rank_bic = infer.model_select([fs, fn], criterion="bic")
    assert rank_bic[0].family == "normal"


def test_model_select_exact_tie_breaking():
    def make(family, aic):
        return infer.FitResult(family=family, params={}, loglik=-100.0,
                               aic=aic, bic=aic, n=50, converged=True,
                               iterations=1, boundary_flag=False)

    # equal criterion value: fewer free parameters first
    rank = infer.model_select([make("skew_normal", 204.0),
                               make("normal", 204.0)])
    assert [f.family for f in rank] == ["normal", "skew_normal"]
    # equal value and equal parameter count: family declaration order
    rank2 = infer.model_select([make("twopiece_normal", 204.0),
                                make("skew_normal", 204.0)])
    assert [f.family for f in rank2] == ["skew_normal", "twopiece_normal"]


def test_model_select_skew_t_data():
    data = skewsym.SkewT(0.0, 1.0, 3.0, 2.0).sample(5_000, base.make_rng(88))
    fits = [infer.fit_mle(f, data) for f in ("normal", "t", "skew_t")]
    rank = infer.model_select(fits)
    assert rank[0].family == "skew_t"
    assert rank[-1].family == "normal"


def test_model_select_validation():
    fit = infer.fit_mle("normal", [-1.0, 0.0, 1.0])
    other = infer.fit_mle("normal", [-1.0, 0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        infer.model_select([])
    with pytest.raises(ValueError):
        infer.model_select([fit, other])
    with pytest.raises(ValueError):
        infer.model_select([fit], criterion="dic")


# ------------------------------------------------------------------- lr_test

def test_lr_test_validation():
    data = np.linspace(-1.0, 1.0, 50)
    with pytest.raises(ValueError):
        infer.lr_test(data, "normal", "skew_t", 99)
    with pytest.raises(ValueError):
        infer.lr_test(data, "normal", "skew_normal", 98)


def test_lr_test_symmetric_data_accepts_null():
    rng = base.make_rng(42)
    half = rng.standard_normal(100)
    data = np.concatenate([half, -half])
    res = infer.lr_test(data, "normal", "skew_normal", 99,
                        rng=base.make_rng(1))
    assert res.statistic == pytest.approx(0.0, abs=1e-6)
    assert res.p_value > 0.9
    assert res.replicates == 99
    assert res.method == "parametric_bootstrap"


def test_lr_test_p_value_granularity():
    rng = base.make_rng(43)
    data = rng.standard_normal(60)
    res = infer.lr_test(data, "normal", "twopiece_normal", 99,
                        rng=base.make_rng(2))
    assert (res.p_value * 100.0) == pytest.approx(
        round(res.p_value * 100.0), abs=1e-12)
    assert 0.0 < res.p_value <= 1.0


def test_lr_test_reproducible():
    rng = base.make_rng(44)
    data = rng.standard_normal(80)
    for null, alt in sorted(infer.NESTED_PAIRS):
        r0 = infer.lr_test(data, null, alt, 99, rng=base.make_rng(9))
        r1 = infer.lr_test(data, null, alt, 99, rng=base.make_rng(9))
        assert r0 == r1, (null, alt)


# scripts/lr_size_study.py's loose settings for many refits
FAST = infer.FitConfig(restarts=1, xatol=3e-4, fatol=1e-4, maxiter=250)


def _embed(null, alt, params):
    """The fitted null inside the alternative, as a fit_mle extra start."""
    if (null, alt) == ("t", "skew_t"):
        return [{**params, "delta": 0.0}]
    if alt == "twopiece_normal":
        return [{**params, "delta": 1.0}]
    return []


def _refit_loop_p_value(data, null, alt, b, rng, cfg):
    """Reference p-value: fit_mle on each bootstrap replicate in turn."""
    embed = partial(_embed, null, alt)
    nf = infer.fit_mle(null, data, cfg)
    af = infer.fit_mle(alt, data, cfg, extra_starts=embed(nf.params))
    observed = max(0.0, 2.0 * (af.loglik - nf.loglik))
    dist = infer.distribution_for(null, nf.params)
    exceed = 0
    for child in rng.spawn(b):
        xb = dist.sample(data.size, child)
        nb = infer.fit_mle(null, xb, cfg)
        ab = infer.fit_mle(alt, xb, cfg, extra_starts=embed(nb.params))
        exceed += max(0.0, 2.0 * (ab.loglik - nb.loglik)) >= observed
    return (1.0 + exceed) / (b + 1.0)


@pytest.mark.parametrize("null, alt", sorted(infer.NESTED_PAIRS))
def test_lr_test_matches_refit_loop(null, alt):
    data = skewsym.SkewNormal(0.0, 1.0, 1.0).sample(60, base.make_rng(48))
    res = infer.lr_test(data, null, alt, 99, rng=base.make_rng(49),
                        config=FAST)
    ref = _refit_loop_p_value(data, null, alt, 99, base.make_rng(49), FAST)
    assert abs(res.p_value - ref) <= 1.0 / 100.0 + 1e-12


@pytest.mark.parametrize("null, alt", sorted(infer.NESTED_PAIRS))
def test_lr_test_chunked_replicates_match(null, alt, monkeypatch):
    data = base.make_rng(50).standard_normal(60)
    whole = infer.lr_test(data, null, alt, 99, rng=base.make_rng(51),
                          config=FAST)
    monkeypatch.setattr(infer, "_BATCH_ELEMENTS", 3 * data.size)
    chunked = infer.lr_test(data, null, alt, 99, rng=base.make_rng(51),
                            config=FAST)
    assert chunked == whole


def _lr_rows(null, alt, rows, cfg, replicate):
    """infer._lr_rows with every row a replicate, or none."""
    return infer._lr_rows(infer._FAMILIES[null], infer._FAMILIES[alt], rows, cfg,
                          np.full(len(rows), replicate))


def _check_lr_rows_against_fit_mle(null, alt, replicate):
    # each replicate's embedded null start reaches the optimizer as a fit_mle
    # refit builds it, so the loose config's early stops agree
    data = skewsym.SkewNormal(0.0, 1.0, 1.0).sample(60, base.make_rng(48))
    nf = infer.fit_mle(null, data, FAST)
    dist = infer.distribution_for(null, nf.params)
    rows = np.array([dist.sample(data.size, c) for c in base.make_rng(49).spawn(99)])
    stats = _lr_rows(null, alt, rows, FAST, replicate)
    for xb, stat in zip(rows, stats):
        nb = infer.fit_mle(null, xb, FAST)
        ab = infer.fit_mle(alt, xb, FAST, extra_starts=_embed(null, alt, nb.params))
        assert abs(stat - 2.0 * (ab.loglik - nb.loglik)) <= 1e-9


@pytest.mark.parametrize("null, alt", sorted(infer.NESTED_PAIRS))
def test_lr_rows_match_fit_mle_per_replicate(null, alt):
    # rows run as the observed one, with fit_mle's whole start list
    _check_lr_rows_against_fit_mle(null, alt, replicate=False)


@pytest.mark.parametrize("null, alt", sorted(
    pair for pair in infer.NESTED_PAIRS if infer._FAMILIES[pair[0]].exact is not None))
def test_lr_rows_replicate_path_matches_fit_mle_under_exact_nulls(null, alt):
    # an exactly fit null gives the alternative no embedded start, so its
    # replicate rows run every start too
    _check_lr_rows_against_fit_mle(null, alt, replicate=True)


@pytest.mark.parametrize("nu", [0.7, 1.0, 5.0])
@pytest.mark.parametrize("n", [50, 200])
def test_lr_rows_t_skew_t_replicates_keep_the_full_list_statistic(nu, n):
    # a replicate runs only skew_t's start at the t fit, plus the gated
    # chase: on rows drawn from the null it ends where every start does
    rows = np.random.default_rng([37, n, int(10 * nu)]).standard_t(nu, size=(20, n))
    cfg = infer.FitConfig()
    alone = _lr_rows("t", "skew_t", rows, cfg, replicate=True)
    full = _lr_rows("t", "skew_t", rows, cfg, replicate=False)
    assert np.all(np.isfinite(alone)) and np.all(np.isfinite(full))
    assert np.all(alone >= full - 1e-6), np.min(alone - full)


@pytest.mark.parametrize("seed, nu, n, k, i", [
    (37, 1.0, 50, 0, 25),  # ends below the nu floor, 0.082 nats short
    (45, 0.7, 50, 0, 11),  # starts on the nu floor, ends inside, 0.12 nats short
    (37, 30.0, 200, 0, 2),  # runs past the nu cap, 0.011 nats short
])
def test_lr_rows_t_skew_t_replicate_reruns_its_starts_at_the_nu_box_ends(seed, nu, n, k, i):
    # replicates drawn as lr_test draws them, from the t fit to a t sample:
    # skew_t's start at the t fit alone stops short of the row's best where
    # nu's slope drops to 0 at an end of its box, so those rows run skew_t's
    # other starts in round 2 and end where the whole start list does
    x = np.random.default_rng([seed, n, int(10 * nu), k]).standard_t(nu, size=n)
    dist = infer.distribution_for("t", infer.fit_mle("t", x).params)
    child = np.random.default_rng([seed + 1, n, int(10 * nu), k]).spawn(i + 1)[i]
    row = dist.sample(n, child)[None, :]
    cfg = infer.FitConfig()
    alone = _lr_rows("t", "skew_t", row, cfg, replicate=True)
    assert alone == _lr_rows("t", "skew_t", row, cfg, replicate=False)


def test_plan_rows_first_only_rows_run_their_first_start_alone_in_round_1():
    spec = infer._FAMILIES["skew_t"]
    w = infer._standardize(base.make_rng(37).standard_t(4.0, size=(3, 100)))[0]
    first = np.zeros((3, spec.n_free))
    batch = next(infer._plan_rows(spec, w, infer.FitConfig(), [first],
                                  np.array([False, True, False])))
    # rows 0 and 2 run the extra start and the three structural starts (the
    # chase waits for round 2), row 1 only the extra start
    assert len(batch.x0) == 4 + 1 + 4
    assert np.array_equal(batch.x0[4], first[1])


def test_plan_rows_first_only_rows_whose_first_start_fails_run_the_others():
    spec = infer._FAMILIES["skew_t"]
    w = infer._standardize(base.make_rng(37).standard_t(4.0, size=(2, 100)))[0]
    # a start far beyond the data's scale, which the kernel rejects
    far = np.zeros((2, spec.n_free))
    far[:, 0] = 2e6
    cfg = infer.FitConfig()
    lone = infer._fit_rows(spec, w, cfg, [far], np.array([True, True]))
    assert np.array_equal(lone.nll, infer._fit_rows(spec, w, cfg, [far]).nll)
    assert np.all(np.isfinite(lone.nll))


@pytest.mark.parametrize("null, alt", sorted(infer.NESTED_PAIRS))
def test_lr_test_statistic_is_its_row_statistic(null, alt):
    # the observed statistic and the replicates' come from one row fit, so
    # boot >= observed compares numbers computed the same way
    data = base.make_rng(4).standard_normal(200)
    res = infer.lr_test(data, null, alt, 99, rng=base.make_rng(5))
    stats = _lr_rows(null, alt, data[None, :], infer.FitConfig(), replicate=False)
    assert res.statistic == max(0.0, float(stats[0]))


def test_lr_rows_embedded_start_keeps_t_skew_t_statistic_non_negative():
    # on this Cauchy row skew_t's own starts end 18 nats below the t fit, nu
    # on its floor; its first start, the t fit at delta = 0, keeps the
    # statistic at or above 0
    row = np.random.default_rng([7, 200, 1]).standard_t(1.0, size=(100, 200))[13]
    (stat,) = _lr_rows("t", "skew_t", row[None, :], infer.FitConfig(), replicate=False)
    assert stat >= 0.0


def _lr_test_by_parts(data, null, alt, b, rng, cfg):
    """lr_test from row fits run apart: the observed sample as a batch of
    one row, then all the replicates as one batch."""
    observed = max(0.0, float(_lr_rows(null, alt, data[None, :], cfg, replicate=False)[0]))
    dist = infer.distribution_for(null, infer.fit_mle(null, data, cfg).params)
    rows = np.array([dist.sample(data.size, c) for c in rng.spawn(b)])
    boot = _lr_rows(null, alt, rows, cfg, replicate=True)
    ok = np.isfinite(boot)
    exceed = np.count_nonzero(np.maximum(boot[ok], 0.0) >= observed)
    return infer.TestResult(statistic=observed, p_value=(1.0 + exceed) / (b + 1.0),
                            replicates=b, failures=int(b - np.count_nonzero(ok)))


@pytest.mark.parametrize("null, alt", sorted(infer.NESTED_PAIRS))
def test_lr_test_observed_row_rides_with_the_replicates(null, alt, monkeypatch):
    # the observed sample is row 0 of the replicates' first batch; rows are
    # independent, so the statistic and p-value keep the bits of fits run
    # apart, however the rows are chunked
    data = skewsym.SkewNormal(0.0, 1.0, 1.0).sample(200, base.make_rng(83))
    cfg = infer.FitConfig()
    got = {}
    for b in (99, 199):
        got[b] = infer.lr_test(data, null, alt, b, rng=base.make_rng(84), config=cfg)
        assert got[b] == _lr_test_by_parts(data, null, alt, b, base.make_rng(84), cfg)
    assert got[99].statistic == got[199].statistic
    # 40 rows per batch: the 100 and 200 rows span three and five batches
    monkeypatch.setattr(infer, "_BATCH_ELEMENTS", 40 * data.size)
    for b in (99, 199):
        assert infer.lr_test(data, null, alt, b, rng=base.make_rng(84), config=cfg) == got[b]


def _first_fit_error(families, data):
    for family in families:
        try:
            infer.fit_mle(family, data)
        except ValueError as error:
            return str(error)
    raise AssertionError(f"no fit of {families} failed")


@pytest.mark.parametrize("null, alt", sorted(infer.NESTED_PAIRS))
@pytest.mark.parametrize("data, message", [
    (np.array([0.3, -1.2, 2.5]), "fit needs at least"),
    (np.full(20, 3.0), "degenerate sample: zero variance"),
])
def test_lr_test_raises_fit_mle_errors(null, alt, data, message):
    expected = _first_fit_error((null, alt), data)
    assert message in expected
    with pytest.raises(ValueError) as info:
        infer.lr_test(data, null, alt, 99)
    assert str(info.value) == expected


# constant samples whose prescaled mean rounds off the value, so the
# standard deviation comes out near 1e-16 instead of 0
ROUNDED_CONSTANTS = [np.full(7, 0.1), np.full(10, 0.3), np.full(200, 1e-300),
                     np.full(7, -7.7)]


@pytest.mark.parametrize("data", ROUNDED_CONSTANTS + [np.full(3, 0.1)],
                         ids=lambda x: f"{x[0]:g}x{x.size}")
def test_constant_samples_raise_zero_variance(data):
    families = ("normal",) if data.size < 5 else ("normal", "sas_normal", "twopiece_normal")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for family in families:
            with pytest.raises(ValueError, match="degenerate sample: zero variance"):
                infer.fit_mle(family, data)
        if data.size >= 5:
            for null, alt in sorted(infer.NESTED_PAIRS):
                with pytest.raises(ValueError, match="degenerate sample: zero variance"):
                    infer.lr_test(data, null, alt, 99)


def test_lr_test_two_piece_power_at_strong_skew():
    # ISF delta=3 at n=200 is overwhelming: every replicate rejects at 5%
    rejections = 0
    for seed in range(8):
        data = _isf_sample(200, 3.0, seed=300 + seed)
        res = infer.lr_test(data, "normal", "twopiece_normal", 99,
                            rng=base.make_rng(700 + seed))
        rejections += res.p_value <= 0.05
    assert rejections >= 7


def test_lr_test_skew_normal_rejects_under_strong_skew():
    data = skewsym.SkewNormal(0.0, 1.0, 3.0).sample(300, base.make_rng(45))
    res = infer.lr_test(data, "normal", "skew_normal", 199,
                        rng=base.make_rng(46))
    assert res.p_value <= 0.05
    assert res.statistic > 3.84


def test_lr_statistic_nonnegative_across_pairs():
    data = skewsym.SkewNormal(0.0, 1.0, 2.0).sample(300, base.make_rng(17))
    lls = {f: infer.fit_mle(f, data).loglik
           for f in ("normal", "t", "skew_normal", "sas_normal",
                     "twopiece_normal", "skew_t")}
    for null, alt in infer.NESTED_PAIRS:
        assert 2.0 * (lls[alt] - lls[null]) >= -1e-8, (null, alt)


def test_test_result_fields():
    rng = base.make_rng(47)
    data = rng.standard_normal(60)
    res = infer.lr_test(data, "t", "skew_t", 99, rng=base.make_rng(3))
    assert res.statistic >= 0.0
    assert 0.0 <= res.p_value <= 1.0
    assert res.failures <= 4   # under the 5% abort threshold


# ------------------------------------------------------- quasi-Newton fitting

def _log_box(lo, hi):
    """A coordinate of a clipped log map: inside its box or beyond either end."""
    a, b = math.log(lo), math.log(hi)
    return st.one_of(st.floats(a + 0.05, b - 0.05), st.floats(b + 0.05, b + 3.0),
                     st.floats(a - 3.0, a - 0.05))


NU = _log_box(0.5, 200.0)
SKEW = st.floats(-30.0, 30.0)
# kernel, scaling and strategies of the shape coordinates after mu, log sigma
SCORE_CASES = {
    "logistic": ("logistic", "isf", ()),
    "t": ("t", "isf", (NU,)),
    "skew_normal": ("skew_normal", "isf", (SKEW,)),
    "penalized_skew_normal": (None, "isf", (SKEW,)),
    "skew_t": ("skew_t", "isf", (NU, SKEW)),
    "sas_normal": ("sas_normal", "isf", (
        st.floats(-5.0, 5.0),
        st.one_of(st.floats(-1.5, 1.5),
                  st.floats(math.log(1e-3) - 3.0, math.log(1e-3) - 0.05)))),
    "twopiece_normal_isf": ("twopiece_normal", "isf", (_log_box(1e-4, 1e4),)),
    "twopiece_normal_epsilon": ("twopiece_normal", "epsilon", (st.floats(-3.0, 3.0),)),
    "twopiece_t_isf": ("twopiece_t", "isf", (NU, _log_box(1e-4, 1e4))),
    "twopiece_t_epsilon": ("twopiece_t", "epsilon", (NU, st.floats(-3.0, 3.0))),
}


@pytest.mark.parametrize("case", sorted(SCORE_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_score_matches_central_differences(case, data):
    family, scaling, shape = SCORE_CASES[case]
    spec = (infer._FAMILIES[family] if family is not None
            else infer._PENALIZED_SKEW_NORMAL)
    cfg = infer.FitConfig(scaling=scaling)
    w = np.array([data.draw(st.lists(st.floats(-4.0, 4.0), min_size=5,
                                     max_size=30))])
    t = np.array([[data.draw(c) for c in
                   (st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), *shape)]])
    h = 1e-6
    # the two-piece kernels change curvature where a point meets mu, by a
    # factor up to 1e16 at the ISF cap
    assume(np.min(np.abs(w - t[0, 0])) > 1e-3)
    with np.errstate(all="ignore"):
        f, g = spec.nll(t, w, cfg)
        assert np.isfinite(f[0])
        for j in range(t.shape[1]):
            e = np.zeros_like(t)
            e[0, j] = h
            num = (spec.nll(t + e, w, cfg)[0][0]
                   - spec.nll(t - e, w, cfg)[0][0]) / (2 * h)
            # central-difference rounding is about 2e-10 |f|
            assert g[0, j] == pytest.approx(
                num, rel=1e-4, abs=1e-7 * (1.0 + abs(f[0]))), j


@pytest.mark.parametrize("case", sorted(SCORE_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_logf_partials_match_central_differences(case, data):
    # each family's per-point partials, which the BHHH seed reads point by point;
    # a two-piece family's logf is ISF's under either scaling, and the
    # epsilon cases evaluate it at asymmetries inside the epsilon box
    family, scaling, shape = SCORE_CASES[case]
    spec, cfg = infer._FAMILIES[family or "skew_normal"], infer.FitConfig(scaling=scaling)

    def logf(z, values, grad=None):
        return spec.logf(z, *(np.array([[v]]) for v in values), grad=grad)

    # |z| > 1e-3, away from the two-piece kink at 0, drawn without a filter:
    # lists of floats hold 0 so often that rejecting whole lists can fail
    # hypothesis's filter health check
    away = st.one_of(st.floats(-4.0, -1e-3, exclude_max=True), st.floats(1e-3, 4.0, exclude_min=True))
    z = np.array([data.draw(st.lists(away, min_size=1, max_size=10))])
    coords = [data.draw(c) for c in shape]   # in optimizer order, after mu and log sigma
    values = [float(m.decode(coords[s.col - 2])[0]) for s, m in zip(spec.shapes, spec.maps(cfg))]
    h = 1e-6
    with np.errstate(all="ignore"):
        val, dz, *d = logf(z, values, grad=(np.array([[True]]),) * len(values))
        tol = 1e-7 * (1.0 + np.abs(val))
        num = (logf(z + h, values) - logf(z - h, values)) / (2 * h)
        assert np.all(np.abs(dz - num) <= 1e-4 * np.abs(num) + tol)
        for j, v in enumerate(values):
            # a step under 1e-7 leaves the difference to rounding: SAS
            # log-densities near -1e28 (delta 33, eta 1e-3) round 66 ulps
            step = h * max(abs(v), 0.1)
            up, down = list(values), list(values)
            up[j], down[j] = v + step, v - step
            num = (logf(z, up) - logf(z, down)) / (2 * step)
            assert np.all(np.abs(d[j] - num) <= 1e-4 * np.abs(num) + tol), spec.shapes[j].name


# the simplex steps fits used before the quasi-Newton optimizer
SIMPLEX_STEPS = {
    "logistic": (0.25, 0.25),
    "t": (0.25, 0.25, 0.5),
    "skew_normal": (0.25, 0.25, 0.6),
    "skew_t": (0.25, 0.25, 0.5, 0.6),
    "sas_normal": (0.25, 0.25, 0.5, 0.3),
    "twopiece_normal": (0.25, 0.25, 0.5),
    "twopiece_t": (0.25, 0.25, 0.5, 0.5),
}


def _simplex_reference(spec, w, cfg):
    """Best value per data row of scipy's Nelder-Mead over spec's kernel and starts."""
    from scipy.optimize import minimize

    d = spec.n_free
    offsets = np.vstack((np.zeros(d), np.diag(SIMPLEX_STEPS[spec.name])))
    best = np.full(w.shape[0], np.inf)
    for s in spec.starts(w, cfg)[:cfg.restarts]:
        for i in range(w.shape[0]):
            sim = (s[i] if s.ndim == 2 else s[i, 0]) + offsets
            if s.ndim == 3:   # a stacked start's other points are its last vertices
                sim[d + 2 - s.shape[1]:] = s[i, 1:]

            def fn(v, row=w[i:i + 1]):
                val = spec.nll(v[None, :], row, cfg)[0][0]
                bad = abs(v[0]) > 1e6 or abs(v[1]) > 200.0 or not np.isfinite(val)
                return np.inf if bad else val

            with np.errstate(all="ignore"):
                # scipy counts its start as iteration 1
                res = minimize(fn, sim[0], method="Nelder-Mead", options={
                    "initial_simplex": sim, "xatol": cfg.xatol, "fatol": cfg.fatol,
                    "maxiter": 400 * d + 1})
            best[i] = min(best[i], res.fun)
    return best


def test_fits_reach_the_simplex_reference():
    # the gamma sample's two-piece t optimum lies against a kink in mu
    rng = base.make_rng(1000)
    n = 200
    x = np.array([rng.standard_normal(n),
                  base.student_base(3.0).quantile(rng.random(n)),
                  skewsym.SkewNormal(0.0, 1.0, 4.0).sample(n, rng),
                  rng.gamma(2.0, size=n),
                  np.abs(rng.standard_normal(n)) + 0.1])
    assert infer.fit_mle("skew_normal", x[-1]).boundary_flag   # a frontier sample
    w = infer._standardize(x)[0]
    for scaling in ("isf", "epsilon"):
        cfg = infer.FitConfig(scaling=scaling)
        specs = [replace(infer._FAMILIES[f], exact=None) for f in SIMPLEX_STEPS]
        if scaling == "isf":
            specs.append(infer._PENALIZED_SKEW_NORMAL)
        else:
            specs = [s for s in specs if s.name.startswith("twopiece")]
        for spec in specs:
            new = infer._fit_rows(spec, w, cfg).nll
            ref = _simplex_reference(spec, w, cfg)
            assert np.all(new <= ref + 1e-6), (spec.name, scaling, new - ref)
    # one start is enough to end at or below the null point
    null = infer._fit_rows(infer._FAMILIES["normal"], w, FAST).nll
    one = infer._fit_rows(infer._FAMILIES["skew_normal"], w, FAST).nll
    assert np.all(one <= null)


# ------------------------------------------------------------- the BHHH seed

def _opg_loop(spec, w, t, rows, cfg):
    """Reference outer products of scores: the kernel on one data point at a time."""
    out = []
    for ti, r in zip(t, rows):
        opg = np.zeros((t.shape[1], t.shape[1]))
        for point in w[r]:
            s = spec.nll(ti[None, :], np.array([[point]]), cfg)[1][0]
            opg += np.outer(s, s)
        out.append(opg)
    return np.array(out)


@pytest.mark.parametrize("family", ["skew_t", "twopiece_t"])
def test_opg_seed_matches_a_per_point_loop(family, monkeypatch):
    rng = base.make_rng(60)
    x = np.array([skewsym.SkewT(0.0, 1.0, 4.0, 3.0).sample(40, rng),
                  _isf_sample(40, 2.0, seed=61)])
    w = infer._standardize(x)[0]
    spec, cfg = infer._FAMILIES[family], infer.FitConfig()
    starts = spec.starts(w, cfg)
    k = len(starts)
    t = np.stack([s if s.ndim == 2 else s[:, 0] for s in starts], axis=1)
    t = t.reshape(-1, spec.n_free)
    rows = np.arange(t.shape[0]) // k
    # three problems' points per kernel call, so the chunks split the rows
    monkeypatch.setattr(infer, "_BATCH_ELEMENTS", 3 * w.shape[1])
    with np.errstate(all="ignore"):
        h, seeded, *_ = infer._opg_seed(spec, w, t, rows, cfg)
        ref = _opg_loop(spec, w, t, rows, cfg)
    # the frontier chase, each family's last start, sits where the
    # asymmetry's score all but vanishes: its outer product is singular and
    # it keeps the identity
    chase = np.arange(t.shape[0]) % k == k - 1
    assert np.array_equal(seeded, ~chase)
    eye = np.eye(spec.n_free)
    assert np.array_equal(h[chase], np.broadcast_to(eye, (chase.sum(), *eye.shape)))
    variances = np.diagonal(np.linalg.inv(ref[~chase]), axis1=1, axis2=2)
    assert np.allclose(h[~chase], eye * variances[:, None, :], rtol=1e-8, atol=0.0)


def _rosenbrock(t, rows):
    a, b = t[:, :-1], t[:, 1:]
    f = np.sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2, axis=1)
    g = np.zeros_like(t)
    g[:, :-1] += -400.0 * a * (b - a * a) - 2.0 * (1.0 - a)
    g[:, 1:] += 200.0 * (b - a * a)
    return f, g


def _identity_start(x0):
    """_batch_bfgs's start for unseeded problems: the identity, and the
    Rosenbrock value and score at x0."""
    m, d = x0.shape
    return (np.tile(np.eye(d), (m, 1, 1)), np.zeros(m, dtype=bool),
            *_rosenbrock(x0, np.arange(m)))


def test_batch_bfgs_unseeded_problems_keep_the_identity_run():
    # recorded from the optimizer before it took seeds, when every problem
    # started from the identity; the arithmetic is IEEE-exact, so the match
    # is bit for bit
    x0 = np.array([[-1.2, 1.0, 0.5], [0.0, 0.0, 0.0], [2.0, -1.5, 3.0]])
    x, f, iters, conv, kernel = infer._batch_bfgs(_rosenbrock, x0, _identity_start(x0),
                                                  1e-10, 1e-14, 2000)
    assert [[v.hex() for v in row] for row in x] == [
        ["0x1.ffffffffffe0dp-1", "0x1.ffffffffffd03p-1", "0x1.ffffffffffa13p-1"],
        ["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000001p+0"],
        ["0x1.ffffffffffd74p-1", "0x1.ffffffffffb5bp-1", "0x1.ffffffffff6c0p-1"],
    ]
    assert [v.hex() for v in f] == [
        "0x1.7f4d680000000p-84", "0x1.9000000000000p-98", "0x1.831fe80000000p-85"]
    assert iters.tolist() == [57, 36, 57]
    assert conv.all()
    # the start's evaluation, then at least one line-search trial a step
    assert np.all(kernel > iters)


def test_batch_bfgs_stops_each_problem_at_its_own_cap():
    x0 = np.array([[-1.2, 1.0, 0.5], [2.0, -1.5, 3.0]])
    x, f, iters, conv, _ = infer._batch_bfgs(_rosenbrock, x0, _identity_start(x0), 1e-10,
                                             1e-14, np.array([3, 10]))
    assert iters.tolist() == [3, 10]
    assert not conv.any()
    # each problem ends where a run under its cap alone ends
    for i, cap in enumerate((3, 10)):
        alone = infer._batch_bfgs(_rosenbrock, x0[i:i + 1], _identity_start(x0[i:i + 1]),
                                  1e-10, 1e-14, cap)
        assert np.array_equal(alone[0][0], x[i]) and alone[1][0] == f[i]


def _rosenbrock_batch(d, m, maxiter, seed):
    """A _Batch of m Rosenbrock problems in d coordinates, every other one
    seeded with a diagonal h, whose fn and seed check that they see only
    their own problems and columns, in ascending order."""
    rng = base.make_rng(seed)

    def fn(t, rows):
        assert t.shape == (rows.size, d) and np.all(np.diff(rows) > 0)
        assert rows.min() >= 0 and rows.max() < m
        return _rosenbrock(t, rows)

    def start(idx):
        assert idx.size and np.all(np.diff(idx) > 0) and idx.min() >= 0 and idx.max() < m
        return h[idx], seeded[idx], *fn(x0[idx], idx)

    seeded = np.arange(m) % 2 == 1
    h = np.tile(np.eye(d), (m, 1, 1))
    h[seeded] *= rng.uniform(0.05, 0.5, (int(seeded.sum()), 1, d))
    x0 = rng.uniform(-2.0, 2.0, (m, d))
    return infer._Batch(fn, x0, start, 1e-10, 1e-14, maxiter)


# ------------------------- the dof difference only where the nu slope is not 0

class _UnitSlopeNu:
    """The nu map with a unit slope where it clips: the same nu, but every
    row counts as live, so the skew-t's logf differences every row."""

    def __init__(self, nu_map):
        self.nu_map = nu_map

    def decode(self, t):
        nu, slope = self.nu_map.decode(t)
        return nu, np.where(slope == 0.0, 1.0, slope)


@dataclass(frozen=True)
class _FullPass(infer._Family):
    """The skew-t family with its differenced stdtr pass on every row, in the
    kernel and the BHHH seed alike, and the nu partial chained through the
    true slope, zero where log nu is clipped."""

    def terms(self, t, w, cfg):
        unit = replace(self, shapes=tuple(
            s._replace(map=_UnitSlopeNu(s.map)) if s.name == "nu" else s for s in self.shapes))
        *out, _ = infer._Family.terms(unit, t, w, cfg)
        return *out, [s.map.decode(t[:, s.col])[1] for s in self.shapes]


SKEW_T = infer._FAMILIES["skew_t"]
FULL_PASS = _FullPass(**{f.name: getattr(SKEW_T, f.name) for f in fields(SKEW_T)})


def test_skew_t_fits_match_fits_with_the_full_difference_pass(monkeypatch):
    # normal data drive log nu past its clip, where the nu slope is zero
    rng = base.make_rng(901)
    n = 2000
    # five problems per kernel call, so the batch is chunked
    monkeypatch.setattr(infer, "_BATCH_ELEMENTS", 5 * n)
    w = infer._standardize(np.array([rng.standard_normal(n),
                                     rng.standard_t(3.0, size=n),
                                     rng.gamma(2.0, size=n)]))[0]
    cfg = infer.FitConfig()
    got, ref = infer._fit_rows(SKEW_T, w, cfg), infer._fit_rows(FULL_PASS, w, cfg)
    assert infer._NU.decode(got.t[0, 2])[1] == 0.0
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_skew_t_differences_only_rows_with_a_nu_slope(monkeypatch):
    calls = []

    def log_stdtr(df, a):
        calls.append(a)
        return base.log_stdtr(df, a)

    rng = base.make_rng(910)
    w = np.tile(rng.standard_normal(30), (8, 1))
    cfg = infer.FitConfig()
    for log_nu in ([1.0, 2.0, 6.0, 7.0, 0.5, -1.0, 3.0, 5.5], [6.0, 7.0], [1.0, 3.0]):
        # log nu: inside the box, beyond its upper and below its lower end
        m = len(log_nu)
        t = np.column_stack((rng.normal(0.0, 0.3, m), rng.normal(0.0, 0.3, m),
                             log_nu, rng.normal(0.0, 0.5, m)))
        live = infer._NU.decode(t[:, 2])[1] != 0.0
        ref_f, ref_g = FULL_PASS.nll(t, w[:m], cfg)
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(skewsym, "log_stdtr", log_stdtr)
            f, g = SKEW_T.nll(t, w[:m], cfg)
        # one pass for the values, and one differenced pass on the live rows
        assert len(calls) == 1 + live.any()
        if live.any():
            assert np.array_equal(calls[1], calls[0][live])
        assert f.tobytes() == ref_f.tobytes()
        assert g[live].tobytes() == ref_g[live].tobytes()
        # a clipped row's nu score is a zero of either sign
        assert np.array_equal(g, ref_g)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_skew_t_score_is_finite_wherever_its_value_is(data):
    # with and without the differenced pass: skipping it where the nu slope
    # is zero never makes finite a score that would have counted as +inf
    w = np.array([data.draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20))])
    t = np.array([[data.draw(st.floats(-1e6, 1e6)), data.draw(st.floats(-200.0, 200.0)),
                   data.draw(st.floats(-50.0, 50.0)), data.draw(st.floats(-1e3, 1e3))]])
    cfg = infer.FitConfig()
    with np.errstate(all="ignore"):
        f, g = SKEW_T.nll(t, w, cfg)
        ref_g = FULL_PASS.nll(t, w, cfg)[1]
    assume(np.isfinite(f[0]))
    assert np.isfinite(g).all() and np.isfinite(ref_g).all()


def test_sas_kernel_rejects_overflowing_rows_without_a_warning():
    # at eta = 1e3, sinh(eta asinh z + delta) overflows at |z| = 10, and on
    # the grad path so do cosh there and, at |z| = 0.5, its product with the
    # base's partial; every log-density is -inf, and each row's value +inf,
    # which the optimizer rejects
    spec, cfg = infer._FAMILIES["sas_normal"], infer.FitConfig()
    t = np.array([[0.0, 0.0, t_delta, math.log(1e3)] for t_delta in (0.0, 0.3, -0.3)] * 2)
    w = np.repeat([[10.0, 0.5], [-10.0, -0.5]], 3, axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, g = spec.nll(t, w, cfg)
        val = transform.sas_logf(w, 0.0, 1e3)
    assert np.all(f == np.inf) and not np.isfinite(g).all(axis=1).any()
    assert np.all(val == -np.inf)


def test_bhhh_seed_cuts_optimizer_iterations():
    # iterations summed over the starts when every start began from the
    # identity: 103 (sas_normal) and 109 (skew_t) on this sample
    x = base.make_rng(2024).gamma(2.0, size=200)
    assert infer.fit_mle("sas_normal", x).iterations < 103
    assert infer.fit_mle("skew_t", x).iterations < 109


# ------------------------------------------------ the two-process work queue

BFGS_CASES = [(f, s) for f in infer.FAMILY_ORDER if infer._FAMILIES[f].exact is None
              for s in (("isf", "epsilon") if infer._FAMILIES[f].scaled else ("isf",))]
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split forks")


@pytest.mark.parametrize("family, scaling", BFGS_CASES)
def test_kernel_rows_do_not_depend_on_their_batch_mates(family, scaling):
    # at n = 10^4 an einsum row reduction took another path for one row than
    # for a batch, so a problem's result depended on its batch-mates
    spec, cfg = infer._FAMILIES[family], infer.FitConfig(scaling=scaling)
    rng = base.make_rng(70)
    w = rng.standard_normal((4, 10_000))
    t = rng.uniform(-0.5, 0.5, (4, spec.n_free))
    f, g = spec.nll(t, w, cfg)
    for i in range(4):
        fi, gi = spec.nll(t[i:i + 1], w[i:i + 1], cfg)
        assert fi.tobytes() == f[i:i + 1].tobytes() and gi.tobytes() == g[i:i + 1].tobytes(), i


@pytest.mark.parametrize("family, scaling", [*BFGS_CASES, ("penalized", "isf")])
def test_seed_start_is_the_kernel_at_the_start_points(family, scaling, monkeypatch):
    # the seed's one pass over the start points gives fn's values and
    # scores there, bit for bit, over any ascending index set
    spec = (infer._PENALIZED_SKEW_NORMAL if family == "penalized"
            else infer._FAMILIES[family])
    cfg = infer.FitConfig(scaling=scaling)
    rng = base.make_rng(85)
    w = infer._standardize(np.array([rng.gamma(2.0, size=50), rng.standard_t(3.0, size=50),
                                     rng.standard_normal(50)]))[0]
    # a start far beyond the data's scale, which the kernel rejects
    far = np.zeros((3, spec.n_free))
    far[:, 0] = 2e6
    batch = next(infer._plan_rows(spec, w, cfg, [far]))
    # three problems' points per kernel call, so the chunks split the rows
    monkeypatch.setattr(infer, "_BATCH_ELEMENTS", 3 * w.shape[1])
    m = len(batch.x0)
    for idx in (np.arange(m), np.arange(1, m, 2), np.array([m - 1])):
        with np.errstate(all="ignore"):
            h, seeded, f0, g0 = batch.seed(idx)
            f, g = batch.fn(batch.x0[idx], idx)
        assert h.shape == (idx.size, spec.n_free, spec.n_free) and seeded.shape == idx.shape
        assert f0.tobytes() == f.tobytes() and g0.tobytes() == g.tobytes()
    # the far start is each data row's first problem
    far_starts = np.flatnonzero(batch.x0[:, 0] == 2e6)
    assert far_starts.size == 3
    with np.errstate(all="ignore"):
        assert np.all(batch.seed(far_starts)[2] == np.inf)


@pytest.fixture
def counted_forks(monkeypatch):
    """Two usable cores on any machine; returns the list of forked child
    pids."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pids


@pytest.fixture
def forks(counted_forks, monkeypatch):
    """Every batched fit of two or more jobs runs in the queue, on any
    machine; returns the list of forked child pids."""
    monkeypatch.setattr(infer, "_SPLIT_ELEMENTS", 0)
    return counted_forks


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("queued", [False, pytest.param(True, marks=needs_fork)])
def test_one_process_batches_run_in_one_loop_as_each_batch_alone(queued, monkeypatch, request):
    # both branches run the one padded problem set: in one process as one
    # loop, in the queue as one parity half of one batch per job
    forks = request.getfixturevalue("forks") if queued else []
    # the width-3 batch's cap of 12 stops its problems before they converge
    batches = [_rosenbrock_batch(2, 3, 800, 90), _rosenbrock_batch(3, 4, 12, 91),
               _rosenbrock_batch(4, 5, 1600, 92)]
    alone = [infer._batch_bfgs(b.fn, b.x0, b.seed(np.arange(len(b.x0))), *b[3:])
             for b in batches]
    assert not alone[1][3].any() and (alone[1][2] == 12).all()
    assert all(a[3].all() for a in (alone[0], alone[2]))
    calls = []

    def counted(*args):
        calls.append(args[1].shape)
        return bfgs(*args)

    bfgs = infer._batch_bfgs
    monkeypatch.setattr(infer, "_batch_bfgs", counted)
    together = infer._run_batches(batches, 1)
    assert len(forks) == queued
    if queued:
        _assert_no_children()
        # each of the six jobs this process claimed ran padded problems
        assert all(shape in ((1, 4), (2, 4), (3, 4)) for shape in calls)
    else:
        assert calls == [(12, 4)]
    for mine, ref in zip(together, alone):
        assert len(mine) == len(ref)
        assert all(np.array_equal(a, b) for a, b in zip(mine, ref))
    # exact-only fits, such as the normal family's, plan no batch
    assert infer._run_batches([], 200) == []
    assert len(forks) == queued


@needs_fork
def test_split_fits_are_bit_identical_to_serial_fits(forks, monkeypatch):
    x = base.make_rng(71).gamma(2.0, size=10_000)
    # the skew-normal's chase cannot win here, so its first round holds one
    # start, as the logistic fit's does; an extra start gives it a second
    # problem, and a half to split off
    extra = {"skew_normal": [{"mu": 2.0, "sigma": 1.5, "delta": 2.0}]}
    for family, scaling in BFGS_CASES:
        cfg = infer.FitConfig(scaling=scaling)
        forks.clear()
        split = infer.fit_mle(family, x, cfg, extra.get(family))
        # the logistic fit runs one start, which has no half to split off
        assert len(forks) == (family != "logistic")
        _assert_no_children()
        with monkeypatch.context() as mp:
            mp.setattr(infer, "_SPLIT_ELEMENTS", 1 << 62)
            serial = infer.fit_mle(family, x, cfg, extra.get(family))
        assert len(forks) == (family != "logistic")
        assert split == serial, (family, scaling)


@needs_fork
@pytest.mark.parametrize("null, alt", sorted(infer.NESTED_PAIRS))
def test_split_lr_tests_are_identical_to_serial_tests(null, alt, forks, monkeypatch):
    data = skewsym.SkewNormal(0.0, 1.0, 1.0).sample(100, base.make_rng(72))
    split = infer.lr_test(data, null, alt, 99, rng=base.make_rng(73))
    # the normal and two-piece normal fits are exact and never fork
    assert bool(forks) == (alt != "twopiece_normal")
    _assert_no_children()
    with monkeypatch.context() as mp:
        mp.setattr(infer, "_SPLIT_ELEMENTS", 1 << 62)
        assert infer.lr_test(data, null, alt, 99, rng=base.make_rng(73)) == split


@needs_fork
def test_split_fits_keep_their_bits_where_only_some_rows_chase(forks, monkeypatch):
    # the normal rows skip the skew-normal chase and the frontier rows run
    # it, in a second round with its own queue
    rng = base.make_rng(74)
    x = np.array([rng.standard_normal(200), np.abs(rng.standard_normal(200)) + 0.1,
                  rng.gamma(2.0, size=200), rng.standard_normal(200),
                  -np.abs(rng.standard_normal(200)) - 0.1, rng.standard_normal(200)])
    w = infer._standardize(x)[0]
    cfg = infer.FitConfig()
    for family in ("skew_normal", "penalized"):
        spec = _chase_spec(family)
        forks.clear()
        split = infer._fit_rows(spec, w, cfg)
        assert len(forks) == 2
        _assert_no_children()
        with monkeypatch.context() as mp:
            mp.setattr(infer, "_SPLIT_ELEMENTS", 1 << 62)
            serial = infer._fit_rows(spec, w, cfg)
            forced = _forced_chases(spec, w, cfg, mp)
        assert len(forks) == 2
        for a, b in zip(split, serial):
            assert np.array_equal(a, b)
        skip = split.kernel_rows < forced.kernel_rows
        assert skip.any() and not skip.all() and not skip[[1, 4]].any()


@needs_fork
@pytest.mark.parametrize("family, scaling", CHASE_CASES[2:])
def test_split_t_fits_keep_their_bits_where_only_some_rows_chase(family, scaling, forks,
                                                                 monkeypatch):
    # the normal rows skip the t-family chase and the all-positive rows run
    # it, in a second round with its own queue
    rng = base.make_rng(74)
    x = np.array([rng.standard_normal(200), np.abs(rng.standard_normal(200)) + 0.1,
                  rng.standard_normal(200), -np.abs(rng.standard_normal(200)) - 0.1])
    w = infer._standardize(x)[0]
    spec, cfg = infer._FAMILIES[family], infer.FitConfig(scaling=scaling)
    split = infer._fit_rows(spec, w, cfg)
    assert len(forks) == 2
    _assert_no_children()
    with monkeypatch.context() as mp:
        mp.setattr(infer, "_SPLIT_ELEMENTS", 1 << 62)
        serial = infer._fit_rows(spec, w, cfg)
        forced = _forced_chases(spec, w, cfg, mp)
    assert len(forks) == 2
    for a, b in zip(split, serial):
        assert np.array_equal(a, b)
    assert (split.kernel_rows < forced.kernel_rows).tolist() == [True, False, True, False]


class _KernelFailure(Exception):
    pass


@needs_fork
def test_an_exception_in_the_child_is_raised_in_the_parent(forks):
    parent = os.getpid()

    def logf(z, *shapes, grad=None):
        if os.getpid() != parent:
            raise _KernelFailure("kernel failed")
        return base.t_logf(z, *shapes, grad=grad)

    spec = replace(infer._FAMILIES["t"], logf=logf)
    w = infer._standardize(base.make_rng(74).standard_normal((2, 50)))[0]
    with pytest.raises(_KernelFailure) as info:
        infer._fit_rows(spec, w, infer.FitConfig())
    # the child's traceback comes along as the cause
    assert "logf" in str(info.value.__cause__)
    assert len(forks) == 1
    _assert_no_children()


@needs_fork
def test_a_child_that_dies_raises_child_process_error(forks):
    # as when the child is killed for memory: it sends nothing
    parent = os.getpid()

    def logf(z, *shapes, grad=None):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return base.t_logf(z, *shapes, grad=grad)

    spec = replace(infer._FAMILIES["t"], logf=logf)
    w = infer._standardize(base.make_rng(74).standard_normal((2, 50)))[0]
    with pytest.raises(ChildProcessError):
        infer._fit_rows(spec, w, infer.FitConfig())
    assert len(forks) == 1
    _assert_no_children()


@needs_fork
@pytest.mark.parametrize("error", [_KernelFailure, KeyboardInterrupt])
def test_the_child_ends_when_the_parent_raises(error, forks):
    parent = os.getpid()

    def logf(z, *shapes, grad=None):
        if forks and os.getpid() == parent:
            raise error
        return base.t_logf(z, *shapes, grad=grad)

    spec = replace(infer._FAMILIES["t"], logf=logf)
    w = infer._standardize(base.make_rng(75).standard_normal((2, 50)))[0]
    with pytest.raises(error):
        infer._fit_rows(spec, w, infer.FitConfig())
    assert len(forks) == 1
    _assert_no_children()


@needs_fork
def test_a_forced_split_warns_nothing(forks):
    # one queue for every family's jobs: a single fork
    x = base.make_rng(76).standard_t(4.0, size=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        infer.fit_families(infer.FAMILY_ORDER, x)
    assert len(forks) == 1


def _logged_terms(path, terms):
    """_Family.terms that appends, per call, one line per parameter row to
    path: the process, the family and the row's bits."""

    def logged(self, t, w, cfg):
        lines = "".join(f"{os.getpid()} {self.name} {row.tobytes().hex()}\n" for row in t)
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, lines.encode())
        finally:
            os.close(fd)
        return terms(self, t, w, cfg)

    return logged


@pytest.mark.parametrize("queued", [False, pytest.param(True, marks=needs_fork)])
def test_each_start_point_is_evaluated_once(queued, monkeypatch, tmp_path, request):
    # the seed's kernel pass is the optimizer's start evaluation; once a set
    # splits, the seeds run in the jobs, so this process runs no kernel pass
    # before it forks.  Every chase runs (the rule's slack raised to inf), in
    # a second round
    monkeypatch.setattr(infer, "_FRONTIER_SLACK", math.inf)
    events = []
    if queued:
        request.getfixturevalue("forks")
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: (events.append("fork"), fork())[1])
    else:
        monkeypatch.setattr(infer, "_SPLIT_ELEMENTS", 1 << 62)
    parent = os.getpid()
    log = tmp_path / "rows"
    logged = _logged_terms(log, infer._Family.terms)

    def terms(self, t, w, cfg):
        if os.getpid() == parent:
            events.append("terms")
        return logged(self, t, w, cfg)

    x = base.make_rng(86).gamma(2.0, size=200)
    monkeypatch.setattr(infer._Family, "terms", terms)
    infer.fit_families(infer.FAMILY_ORDER, x)
    w = infer._standardize(x[None, :])[0]
    cfg = infer.FitConfig()
    starts = [(f, row.tobytes().hex()) for f in infer.FAMILY_ORDER
              if infer._FAMILIES[f].exact is None
              for s in infer._FAMILIES[f].starts(w, cfg)[: cfg.restarts]
              for row in (s if s.ndim == 2 else s[:, 0])]
    assert len(set(starts)) == len(starts) == 16
    seen = [tuple(line.split()) for line in log.read_text().splitlines()]
    counts = {}
    for _, family, row in seen:
        counts[family, row] = counts.get((family, row), 0) + 1
    assert [counts.get(s, 0) for s in starts] == [1] * len(starts)
    if queued:
        # one queue per round: the chases run in the second
        assert events.count("fork") == 2 and "terms" not in events[:events.index("fork")]
        # this process and each round's child ran kernel passes
        assert len({pid for pid, _, _ in seen}) == 3
    else:
        assert "fork" not in events


# warms OpenBLAS's thread pool, then runs fit_families at n = 10^4 split
# and with _splits off; the seeds' LAPACK calls run in the forked child
BLAS_POOL_GUARD = """
import os
import numpy as np
from flexdist import base, infer

forks = []
fork = os.fork
def counted():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = counted
if len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2:
    os.sched_getaffinity = lambda pid: {0, 1}
a = np.random.default_rng(0).standard_normal((1000, 1000))
assert np.isfinite(a @ a).all()
x = base.make_rng(87).gamma(2.0, size=10_000)
split = infer.fit_families(infer.FAMILY_ORDER, x)
assert len(forks) == 1, forks
infer._splits = lambda jobs, elements: False
serial = infer.fit_families(infer.FAMILY_ORDER, x)
assert len(forks) == 1, forks
for family in infer.FAMILY_ORDER:
    assert split[family] == serial[family], family
"""


@needs_fork
def test_split_fits_keep_their_bits_beside_a_running_blas_pool():
    env = {**subprocess_env(), "OPENBLAS_NUM_THREADS": "2"}
    done = subprocess.run([sys.executable, "-c", BLAS_POOL_GUARD], env=env, timeout=300,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("cores", ["one", "unknown"])
def test_fits_run_serially_without_two_usable_cores(cores, monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    monkeypatch.setattr(infer, "_SPLIT_ELEMENTS", 0)
    if cores == "one":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    x = base.make_rng(77).gamma(2.0, size=200)
    assert infer.fit_mle("skew_t", x).converged
    fits = infer.fit_families(infer.FAMILY_ORDER, x)
    assert all(isinstance(f, infer.FitResult) for f in fits.values())


@pytest.mark.parametrize("n", [6, 200])
@pytest.mark.parametrize("scaling", ["isf", "epsilon"])
def test_one_loop_fit_families_equals_fit_mle(n, scaling, monkeypatch):
    # without a fork, every family's problems run in one loop
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    x = base.make_rng(81).gamma(2.0, size=n)
    cfg = infer.FitConfig(scaling=scaling)
    fits = infer.fit_families(infer.FAMILY_ORDER, x, cfg)
    assert list(fits) == list(infer.FAMILY_ORDER)
    for family in infer.FAMILY_ORDER:
        assert fits[family] == infer.fit_mle(family, x, cfg), family


def _claimed(path, i):
    # O_APPEND makes each short write land whole, whichever process makes it
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, f"{i} {os.getpid()}\n".encode())
    finally:
        os.close(fd)
    time.sleep(0.02)
    return i, os.getpid()


@needs_fork
def test_each_queued_job_runs_exactly_once(tmp_path):
    log = tmp_path / "claims"
    jobs = [partial(_claimed, log, i) for i in range(20)]
    done = infer._queue(jobs)
    _assert_no_children()
    runs = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    assert sorted(i for i, _ in runs) == list(range(20))
    # the results come back in job order, from the process that ran each
    assert done == sorted(runs)
    assert len({pid for _, pid in runs}) == 2
    assert os.getpid() in {pid for _, pid in runs}


@needs_fork
def test_a_queue_of_more_than_255_jobs_is_refused(counted_forks):
    assert infer._queue([partial(int, i) for i in range(255)]) == list(range(255))
    assert len(counted_forks) == 1
    with pytest.raises(ValueError, match="at most 255 jobs"):
        infer._queue([partial(int, i) for i in range(256)])
    assert len(counted_forks) == 1
    _assert_no_children()


def _write_sample(path, x):
    path.write_text("".join(f"{float(v)!r}\n" for v in x))


@needs_fork
def test_fit_all_forks_once_at_large_n_and_never_at_small_n(counted_forks, tmp_path):
    # the split rule itself: 16 problems x 200 points stay below _SPLIT_ELEMENTS
    for n, expected in ((10_000, 1), (200, 0)):
        path = tmp_path / f"x{n}.txt"
        _write_sample(path, base.make_rng(78).gamma(2.0, size=n))
        counted_forks.clear()
        assert cli.main(["fit", str(path), "--all", "--output", str(tmp_path / "r.json")]) == 0
        assert len(counted_forks) == expected, n
        _assert_no_children()


@needs_fork
@pytest.mark.parametrize("scaling", ["isf", "epsilon"])
def test_fit_families_equals_fit_mle_queued_and_serial(scaling, forks, monkeypatch):
    # on this sample the half-t frontier can beat the first round's fits,
    # so the t-family chases run in a second round: one queue per round
    x = base.make_rng(79).gamma(2.0, size=300)
    cfg = infer.FitConfig(scaling=scaling)
    queued = infer.fit_families(infer.FAMILY_ORDER, x, cfg)
    assert len(forks) == 2
    _assert_no_children()
    monkeypatch.setattr(infer, "_SPLIT_ELEMENTS", 1 << 62)
    serial = infer.fit_families(infer.FAMILY_ORDER, x, cfg)
    assert len(forks) == 2
    assert list(queued) == list(serial) == list(infer.FAMILY_ORDER)
    for family in infer.FAMILY_ORDER:
        one = infer.fit_mle(family, x, cfg)
        assert queued[family] == serial[family] == one, family


@needs_fork
@pytest.mark.parametrize("n", [4, 300])
@pytest.mark.parametrize("scaling", ["isf", "epsilon"])
def test_fit_all_reports_are_byte_identical_queued_and_serial(n, scaling, forks, monkeypatch,
                                                             tmp_path):
    data = tmp_path / "x.txt"
    _write_sample(data, base.make_rng(80).gamma(2.0, size=n))

    def report(name):
        out = tmp_path / name
        argv = ["fit", str(data), "--all", "--scaling", scaling, "--output", str(out)]
        assert cli.main(argv) == 0
        return out.read_bytes()

    # at n = 300 the t-family chases run in a second round (the half-t
    # frontier can beat the first round's fits): one queue per round
    rounds = 1 if n == 4 else 2
    queued = report("queued.json")
    assert len(forks) == rounds
    _assert_no_children()
    monkeypatch.setattr(infer, "_SPLIT_ELEMENTS", 1 << 62)
    assert report("serial.json") == queued
    assert len(forks) == rounds
    errors = json.loads(queued).get("errors", {})
    # the four-parameter families need five points
    assert list(errors) == (["skew_t", "sas_normal", "twopiece_t"] if n == 4 else [])
    assert all(msg == f"{f} fit needs at least 5 observations, got 4" for f, msg in errors.items())
