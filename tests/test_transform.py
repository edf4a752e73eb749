import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import trapezoid

from flexdist import base, transform

# Frozen oracle values, computed once with mpmath at 40 digits.
SAS_FWD_ORACLE = -0.05934799047651657      # sinh(0.5 asinh(1) - 0.5)
SINH_07 = 0.7585837018395335
GH_INV_ORACLE = 1.4338957646297228         # 2 (e^0.5 - 1) e^0.1
K_INV_ORACLE = 4.47213595499958            # 2 sqrt(5)
Z_975 = 1.9599639845400543

GRID = np.linspace(-10.0, 10.0, 81)
NORMAL = base.normal_base()
STD_LOC = base.LocationScale(0.0, 1.0)

FIG2_PAIRS = [(0.0, 1.0), (-0.5, 0.5), (-1.0, 0.5), (-1.5, 0.5),
              (-1.0, 1.0), (-1.5, 1.5)]


def _sas_params(delta, eta, mu=0.0, sigma=1.0):
    return transform.TransformParams(NORMAL, base.LocationScale(mu, sigma),
                                     transform.SasTransform(delta, eta))


def test_sas_transform_forward_identity():
    assert np.max(np.abs(transform.SasTransform(0.0, 1.0).forward(GRID) - GRID)) < 1e-12


def test_sas_transform_forward_at_origin_is_sinh_delta():
    assert transform.SasTransform(0.7, 2.3).forward(0.0) == pytest.approx(
        SINH_07, rel=1e-15)


def test_sas_transform_forward_oracle_point():
    assert transform.SasTransform(-0.5, 0.5).forward(1.0) == pytest.approx(
        SAS_FWD_ORACLE, rel=1e-14)


def test_sas_transform_forward_strictly_increasing():
    for delta, eta in FIG2_PAIRS:
        vals = transform.SasTransform(delta, eta).forward(GRID)
        assert np.all(np.diff(vals) > 0.0)


@given(st.floats(-20.0, 20.0), st.floats(-3.0, 3.0), st.floats(0.1, 4.0))
@settings(max_examples=150, deadline=None)
def test_sas_roundtrip(x, delta, eta):
    tr = transform.SasTransform(delta, eta)
    back = tr.inverse(tr.forward(x))
    assert back == pytest.approx(x, rel=1e-10, abs=1e-10)


def test_sas_roundtrip_on_grid():
    for delta, eta in FIG2_PAIRS:
        tr = transform.SasTransform(delta, eta)
        back = tr.inverse(tr.forward(GRID))
        assert np.max(np.abs(back - GRID)) < 1e-10


def test_sas_jacobian_against_finite_differences():
    h = 1e-6
    xs = np.linspace(-5.0, 5.0, 41)
    for delta, eta in ((0.0, 1.0), (-1.0, 0.5), (0.8, 2.0)):
        tr = transform.SasTransform(delta, eta)
        analytic = np.exp(tr.log_jacobian(xs))
        numeric = (tr.forward(xs + h) - tr.forward(xs - h)) / (2.0 * h)
        assert np.max(np.abs(numeric / analytic - 1.0)) < 1e-6


def test_sas_inverse_overflows_without_a_warning():
    # delta = 34, eta = 0.0047 lies inside the fit box, and there every
    # quantile and draw is -inf as a float; the suite turns a RuntimeWarning
    # into an error
    p = _sas_params(34.0, 0.0047)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = p.quantile(np.array([1e-12, 0.5, 1.0 - 1e-12]))
        draws = p.sample(100, base.make_rng(3))
        assert p.quantile(0.5) == -math.inf
    assert np.all(q == -math.inf) and np.all(draws == -math.inf)


def test_sas_transform_validation():
    with pytest.raises(ValueError):
        transform.SasTransform(0.0, 0.0)
    with pytest.raises(ValueError):
        transform.SasTransform(0.0, -1.0)
    with pytest.raises(ValueError):
        transform.SasTransform(np.nan, 1.0)


def test_transform_pdf_identity_matches_normal():
    p = _sas_params(0.0, 1.0)
    vals = p.pdf(GRID)
    ref = stats.norm.pdf(GRID)
    assert np.max(np.abs(vals - ref)) < 1e-14


def test_transform_pdf_figure_pairs_normalize():
    for delta, eta in FIG2_PAIRS:
        p = _sas_params(delta, eta)
        mass = base.integrate(p.pdf, -np.inf, np.inf, tol=1e-10)
        assert mass == pytest.approx(1.0, abs=1e-8), (delta, eta)


def test_transform_pdf_symmetric_iff_delta_zero():
    sym = _sas_params(0.0, 2.0)
    diff = sym.pdf(GRID) - sym.pdf(-GRID)
    assert np.max(np.abs(diff)) < 1e-12
    skewed = _sas_params(-1.0, 1.0)
    assert np.max(np.abs(skewed.pdf(GRID) - skewed.pdf(-GRID))) > 1e-3


NUMERIC_INVERSES = [transform.GhTransform(0.5, 0.2), transform.GhTransform(0.0, 0.3),
                    transform.GhTransform(-0.3, 0.1), transform.GhTransform(-1.0, 0.0),
                    transform.GhTransform(0.7, 0.0), transform.KTransform(0.5),
                    transform.KTransform(0.0), transform.KTransform(2.0)]


@pytest.mark.parametrize("tr", NUMERIC_INVERSES, ids=repr)
def test_gh_and_k_pdf_is_the_cdf_slope(tr):
    p = transform.TransformParams(NORMAL, base.LocationScale(0.3, 1.7), tr)
    xs = np.linspace(-4.0, 4.0, 81)
    h = 1e-5
    slope = (p.cdf(xs + h) - p.cdf(xs - h)) / (2.0 * h)
    dens = p.pdf(xs)
    # central-difference error and cdf rounding, relative to the density
    ok = dens > 1e-6
    assert np.max(np.abs(slope[ok] / dens[ok] - 1.0)) < 1e-6
    assert np.array_equal(dens, [p.pdf(float(x)) for x in xs])
    # log H' against the slope of H, inside the support
    up, down = tr.forward(xs + h), tr.forward(xs - h)
    inside = np.isfinite(up) & np.isfinite(down)
    assert inside.sum() >= 40
    assert np.allclose(np.exp(tr.log_jacobian(xs[inside])),
                       (up[inside] - down[inside]) / (2.0 * h), rtol=1e-6)


@pytest.mark.parametrize("tr", NUMERIC_INVERSES + [transform.GhTransform(-2.0, 0.7),
                                                transform.GhTransform(1e-9, 0.4)], ids=repr)
def test_gh_and_k_log_slope_derivative(tr):
    # the closed-form slope of log (H^(-1))', which the mode search reads,
    # against central differences, far out too
    y = np.array([-30.0, -5.0, -1.0, -0.3, -1e-3, 0.0, 1e-3, 0.4, 1.0, 3.0, 7.0, 30.0])
    h = 1e-6 * np.maximum(1.0, np.abs(y))
    slope = (tr.log_inverse_slope(y + h) - tr.log_inverse_slope(y - h)) / (2.0 * h)
    assert np.allclose(tr.d_log_inverse_slope(y), slope, rtol=1e-8, atol=1e-8)
    # and no NaN where y^2 overflows
    far = tr.d_log_inverse_slope(np.array([-1e300, 1e300]))
    assert not np.isnan(far).any()


@pytest.mark.parametrize("tr", [transform.SasTransform(0.0, 1.0), transform.SasTransform(-5.0, 0.1),
                                transform.SasTransform(2.0, 3.0)], ids=repr)
def test_sas_log_slope_derivative(tr):
    # the closed-form slope of log (H^(-1))'(y) = -log H'(H^(-1)(y)) against
    # central differences, and finite where y^2 overflows
    y = np.array([-30.0, -3.0, -0.3, 0.0, 0.4, 1.0, 7.0, 30.0])
    h = 1e-6 * np.maximum(1.0, np.abs(y))
    log_slope = lambda v: -tr.log_jacobian(tr.inverse(v))  # noqa: E731
    slope = (log_slope(y + h) - log_slope(y - h)) / (2.0 * h)
    assert np.allclose(tr.d_log_inverse_slope(y), slope, rtol=1e-7, atol=1e-8)
    assert np.isfinite(tr.d_log_inverse_slope(np.array([-1e300, 1e300]))).all()


@pytest.mark.parametrize("tr", NUMERIC_INVERSES, ids=repr)
def test_gh_and_k_pdf_normalizes(tr):
    p = transform.TransformParams(NORMAL, STD_LOC, tr)
    mass = base.integrate(p.pdf, -np.inf, 0.0, tol=1e-11) + base.integrate(p.pdf, 0.0, np.inf,
                                                                          tol=1e-11)
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_numeric_forward_brackets_every_finite_target():
    # far from the start at 0: H(1e40) = 1e20 for K(0.5)
    assert transform.KTransform(0.5).forward(1e40) == pytest.approx(1e20, rel=1e-14)
    assert transform.KTransform(0.0).forward(1e30) == pytest.approx(1e30, rel=1e-14)
    assert transform.KTransform(0.0).forward(-1e300) == pytest.approx(-1e300, rel=1e-14)
    g = transform.GhTransform(0.5, 0.2)
    for x in (1e30, 1e300, -1e300):
        assert g.inverse(g.forward(x)) == pytest.approx(x, rel=1e-12)


def test_numeric_forward_evaluates_few_points(monkeypatch):
    # the analogue of test_invert_cdf_evaluates_each_point_once: on the
    # solver's targets, near and far, H^(-1) is evaluated a few times a point,
    # and at least once
    seen = [0]

    def counting(fn):
        def wrapped(self, x):
            seen[0] += np.size(x)
            return fn(self, x)
        return wrapped

    for cls in (transform.GhTransform, transform.KTransform):
        monkeypatch.setattr(cls, "inverse", counting(cls.inverse))
    far = np.logspace(-300.0, 300.0, 61)
    for xs in (np.linspace(-4.0, 4.0, 81), np.concatenate([-far, far])):
        for tr in NUMERIC_INVERSES:
            seen[0] = 0
            tr.forward(xs)
            assert xs.size <= seen[0] <= 12 * xs.size, (tr, xs[0], seen[0] / xs.size)


@given(st.floats(-1.0, 1.0), st.floats(0.0, 0.5), st.floats(0.0, 2.0),
       st.lists(st.tuples(st.booleans(), st.floats(-300.0, 300.0)), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_numeric_forward_solves_each_target_alone(g, h, eta, targets):
    xs = np.array([(-1.0 if neg else 1.0) * 10.0 ** e for neg, e in targets])
    for tr in (transform.GhTransform(g, h), transform.KTransform(eta)):
        y = tr.forward(xs)
        # an array gives each target the bits it gets alone
        assert np.array_equal(y, [tr.forward(float(x)) for x in xs])
        # inside the support, H^(-1) takes the root back to its target
        inside = np.isfinite(y)
        assert inside[np.abs(xs) < 1.0].all()
        assert np.allclose(tr.inverse(y[inside]), xs[inside], rtol=1e-12, atol=0.0)


def test_k_transform_inverse_where_one_plus_x_squared_overflows():
    # beyond |x| = 1.3e154 (1 + x^2)^eta is formed as exp(eta log(x^2))
    assert transform.KTransform(0.25).inverse(1e160) == pytest.approx(1e240, rel=1e-14)
    assert transform.KTransform(0.0).inverse(-1e200) == -1e200
    assert transform.KTransform(2.0).inverse(1e160) == math.inf
    # so H solves there too: the root of y |y|^0.5072 = -8.92e296
    tr = transform.KTransform(0.2536)
    root = -math.exp(math.log(8.92e296) / 1.5072)
    assert tr.forward(-8.92e296) == pytest.approx(root, rel=1e-13)


def test_k_cdf_on_a_t_base_is_silent_where_z_squared_overflows():
    d = transform.TransformParams(base.student_base(3.0), base.LocationScale(0.0, 1.0),
                                  transform.KTransform(0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert d.cdf(-1e300) == 0.0


def test_bounded_gh_support_ends_in_infinity():
    # with h = 0 and g < 0, H^(-1) rises to 1/|g| and no further
    tr = transform.GhTransform(-1.0, 0.0)
    out = tr.forward(np.array([-1e300, 0.5, 1.0 - 2.0 ** -52, 1.0, 2.0]))
    assert np.isfinite(out[:3]).all() and out[3] == out[4] == math.inf
    assert out[1] == pytest.approx(math.log(2.0), rel=1e-14)
    p = transform.TransformParams(NORMAL, STD_LOC, tr)
    assert np.array_equal(p.log_pdf(np.array([1.0, 2.0])), [-math.inf, -math.inf])
    assert np.array_equal(p.cdf(np.array([1.0, 2.0])), [1.0, 1.0])
    assert transform.GhTransform(0.7, 0.0).forward(-1.0 / 0.7) == -math.inf


def test_gh_moments_diverge_from_order_one_over_h():
    from flexdist import measures

    p = transform.TransformParams(NORMAL, STD_LOC, transform.GhTransform(0.5, 0.25))
    assert p.moment_order_bound() == 4.0
    assert measures.moment(p, 4) == math.inf
    assert math.isfinite(measures.moment(p, 1))
    assert transform.TransformParams(NORMAL, STD_LOC, transform.GhTransform(
        0.5, 0.0)).moment_order_bound() == math.inf


def _gh_raw_moment(g, h, r):
    """E[T(Z)^r] of the standard g-and-h for r < 1/h (Martinez & Iglewicz 1984)."""
    terms = (
        (-1) ** i * math.comb(r, i) * math.exp(((r - i) * g) ** 2 / (2.0 * (1.0 - r * h)))
        for i in range(r + 1)
    )
    return math.fsum(terms) / (g ** r * math.sqrt(1.0 - r * h))


@pytest.mark.parametrize("g, h, mu, sigma", [(0.5, 0.2, 0.0, 1.0), (-0.7, 0.1, 1.5, 0.5),
                                             (1.0, 0.0, -2.0, 0.5)])
def test_gh_moments_match_the_closed_form(g, h, mu, sigma):
    from flexdist import measures

    p = transform.TransformParams(NORMAL, base.LocationScale(mu, sigma),
                                  transform.GhTransform(g, h))
    bound = 1.0 / h if h > 0.0 else 6
    for r in range(1, 6):
        if r >= bound:
            assert measures.moment(p, r) == math.inf
            continue
        # E[(mu + sigma T)^r], binomially from the standard law's moments
        expected = math.fsum(math.comb(r, k) * mu ** (r - k) * sigma ** k
                             * (_gh_raw_moment(g, h, k) if k else 1.0) for k in range(r + 1))
        assert measures.moment(p, r) == pytest.approx(expected, rel=1e-12, abs=1e-12), r


def test_a_moment_whose_integrand_overflows_raises():
    # a moment beyond the float range raises, where a term counted as 0
    # would return a finite number
    from flexdist import measures

    huge = transform.TransformParams(NORMAL, base.LocationScale(0.0, 1e100),
                                     transform.GhTransform(0.0, 0.1))
    with pytest.raises(base.IntegrationError, match="overflows"):
        measures.moment(huge, 4)


NU = 5.0
# (base, transformation, moment order bound): H^(-1) stretches a t base's
# power tails by its own power, and g-and-h's exponential growth beats them
ORDER_BOUNDS = [
    (base.student_base(NU), transform.SasTransform(0.3, 0.5), NU * 0.5),
    (base.student_base(NU), transform.SasTransform(0.0, 2.0), NU * 2.0),
    (base.student_base(NU), transform.KTransform(1.0), NU / 3.0),
    (base.student_base(NU), transform.KTransform(0.0), NU),
    (base.student_base(NU), transform.GhTransform(0.0, 0.0), NU),
    (base.student_base(NU), transform.GhTransform(0.0, 0.1), 0.0),
    (base.student_base(NU), transform.GhTransform(-0.5, 0.0), 0.0),
    (base.student_base(NU), transform.GhTransform(0.5, 0.2), 0.0),
    (base.logistic_base(), transform.GhTransform(0.0, 0.1), 0.0),
    (base.logistic_base(), transform.GhTransform(0.5, 0.2), 0.0),
    (base.logistic_base(), transform.GhTransform(-0.25, 0.0), 4.0),
    (base.logistic_base(), transform.GhTransform(0.0, 0.0), math.inf),
    (base.logistic_base(), transform.SasTransform(0.3, 0.5), math.inf),
    (base.logistic_base(), transform.KTransform(1.0), math.inf),
    (NORMAL, transform.GhTransform(0.5, 0.25), 4.0),
    (NORMAL, transform.GhTransform(0.5, 0.0), math.inf),
    (NORMAL, transform.SasTransform(0.3, 0.5), math.inf),
    (NORMAL, transform.KTransform(1.0), math.inf),
]


@pytest.mark.parametrize("b, tr, bound", ORDER_BOUNDS, ids=repr)
def test_moment_order_bound_takes_the_base_tails(b, tr, bound):
    assert transform.TransformParams(b, STD_LOC, tr).moment_order_bound() == bound


def test_a_divergent_moment_is_inf_at_once():
    # the order bound answers before any quadrature, which would stall or
    # overflow on these integrands
    from flexdist import measures

    t5 = base.student_base(5.0)
    k = transform.TransformParams(t5, STD_LOC, transform.KTransform(1.0))
    assert measures.moment(k, 2) == math.inf
    assert measures.moment(transform.TransformParams(
        t5, STD_LOC, transform.GhTransform(0.0, 0.1)), 2) == math.inf
    # the first moment exists (1 < 5/3) and is 0 by symmetry
    assert measures.moment(k, 1) == pytest.approx(0.0, abs=1e-8)


def test_k_moments_match_the_normal_moments():
    # X = Z (1 + Z^2) at eta = 1/2: E X^2 = E Z^2 + E Z^4, E X^4 = 3 + 2 * 15 + 105
    from flexdist import measures

    p = transform.TransformParams(NORMAL, STD_LOC, transform.KTransform(0.5))
    assert measures.moment(p, 2) == pytest.approx(4.0, rel=1e-12)
    assert measures.moment(p, 4) == pytest.approx(138.0, rel=1e-12)


def test_gh_transform_inverse_identity_and_origin():
    assert np.max(np.abs(transform.GhTransform(0.0, 0.0).inverse(GRID) - GRID)) == 0.0
    for g, h in ((0.0, 0.0), (0.5, 0.2), (-1.0, 0.5)):
        assert transform.GhTransform(g, h).inverse(0.0) == 0.0


def test_gh_transform_inverse_oracle_point():
    assert transform.GhTransform(0.5, 0.2).inverse(1.0) == pytest.approx(
        GH_INV_ORACLE, rel=1e-14)


def test_gh_transform_inverse_continuous_in_g_at_zero():
    xs = np.linspace(-4.0, 4.0, 17)
    lim = transform.GhTransform(0.0, 0.3).inverse(xs)
    near = transform.GhTransform(1e-9, 0.3).inverse(xs)
    assert np.max(np.abs(near - lim)) < 1e-8


def test_gh_transform_inverse_monotone_grid():
    for g in (0.0, 0.5, -0.5):
        for h in (0.0, 0.2, 0.5):
            vals = transform.GhTransform(g, h).inverse(GRID)
            assert np.all(np.diff(vals) > 0.0), (g, h)


def test_gh_transform_validation():
    with pytest.raises(ValueError):
        transform.GhTransform(0.0, -0.1)
    transform.GhTransform(0.0, 0.0)


def test_k_transform_inverse_values_and_oddness():
    assert np.max(np.abs(transform.KTransform(0.0).inverse(GRID) - GRID)) == 0.0
    assert transform.KTransform(0.5).inverse(2.0) == pytest.approx(
        K_INV_ORACLE, rel=1e-14)


@given(st.floats(0.0, 30.0), st.floats(0.0, 2.0))
@settings(max_examples=100, deadline=None)
def test_k_transform_inverse_odd(a, eta):
    tr = transform.KTransform(eta)
    assert tr.inverse(-a) == -tr.inverse(a)


def test_k_transform_validation():
    with pytest.raises(ValueError):
        transform.KTransform(-0.2)
    transform.KTransform(0.0)


@pytest.mark.parametrize("tr", [transform.GhTransform(0.5, 0.2),
                                transform.GhTransform(-0.3, 0.0),
                                transform.KTransform(0.5)])
def test_numeric_forward_maps_infinite_targets_to_infinity(tr):
    assert tr.forward(math.inf) == math.inf
    assert tr.forward(-math.inf) == -math.inf
    assert math.isnan(tr.forward(math.nan))
    finite = np.array([-3.0, 0.0, 0.7, 12.0])
    mixed = np.array([-math.inf, -3.0, 0.0, math.nan, 0.7, 12.0, math.inf])
    out = tr.forward(mixed)
    assert out[0] == -math.inf and out[-1] == math.inf and math.isnan(out[3])
    # the finite targets are solved as they are without the others
    assert np.array_equal(out[[1, 2, 4, 5]], tr.forward(finite))


def test_transform_quantile_gh_median_is_mu():
    for g, h in ((0.0, 0.0), (0.5, 0.2), (-2.0, 0.7)):
        p = transform.TransformParams(NORMAL, base.LocationScale(3.0, 2.0),
                                      transform.GhTransform(g, h))
        assert p.quantile(0.5) == pytest.approx(
            3.0, abs=1e-12)


def test_transform_quantile_gh_normal_limit():
    p = transform.TransformParams(NORMAL, base.LocationScale(1.0, 2.0),
                                  transform.GhTransform(0.0, 0.0))
    assert p.quantile(0.975) == pytest.approx(
        1.0 + 2.0 * Z_975, rel=1e-9)


def test_transform_quantile_sas_identity_equals_base():
    p = _sas_params(0.0, 1.0)
    for level in (0.05, 0.25, 0.5, 0.9):
        assert p.quantile(level) == pytest.approx(
            float(NORMAL.quantile(level)), abs=1e-12)


def test_transform_quantile_sas_agrees_with_cdf_inversion():
    p = _sas_params(-1.0, 0.5, mu=0.5, sigma=1.5)
    levels = np.array([0.1, 0.5, 0.9])
    numeric = base.invert_cdf(p.cdf, p.pdf, levels, 0.5, 1.5)
    for level, x in zip(levels, numeric):
        q = p.quantile(level)
        assert q == pytest.approx(x, abs=1e-8)
        assert float(p.cdf(q)) == pytest.approx(level, abs=1e-10)


def test_transform_quantile_rejects_bad_levels():
    p = _sas_params(0.0, 1.0)
    for bad in (-0.2, 1.7):
        with pytest.raises(ValueError):
            p.quantile(bad)
    assert p.quantile(0.0) == -math.inf
    assert p.quantile(1.0) == math.inf


def test_sample_transform_identity_ks():
    p = _sas_params(0.0, 1.0)
    x = p.sample(100_000, base.make_rng(11))
    res = stats.kstest(x, "norm")
    assert res.pvalue > 0.05


def test_sample_transform_gh_median():
    p = transform.TransformParams(NORMAL, STD_LOC,
                                  transform.GhTransform(0.5, 0.0))
    x = p.sample(100_000, base.make_rng(12))
    iqr = np.quantile(x, 0.75) - np.quantile(x, 0.25)
    assert abs(np.median(x)) < 3.0 * iqr / np.sqrt(x.size)


def test_sample_transform_gh_quantiles_match():
    p = transform.TransformParams(NORMAL, STD_LOC,
                                  transform.GhTransform(0.5, 0.2))
    x = p.sample(100_000, base.make_rng(13))
    for level in (0.1, 0.5, 0.9):
        band = p.quantile(level + 0.01) - p.quantile(level - 0.01)
        emp = np.quantile(x, level)
        true = p.quantile(level)
        assert abs(emp - true) < band, level


def test_sample_transform_seed_reproducibility():
    p = _sas_params(-1.0, 0.5)
    a = p.sample(64, base.make_rng(5))
    b = p.sample(64, base.make_rng(5))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        p.sample(-2, base.make_rng(5))


def test_sas_sampler_ks_against_class_cdf():
    p = _sas_params(-1.0, 0.5)
    x = p.sample(50_000, base.make_rng(14))
    res = stats.kstest(x, lambda t: p.cdf(t))
    assert res.pvalue > 0.01


@pytest.mark.parametrize("delta", [-5.0, 5.0])
def test_sas_mode_far_beyond_ten_scales(delta):
    # at eta = 0.5 the peak lies near z = -+962, where a search over mu +- 10
    # sigma stopped at its edge
    p = _sas_params(delta, 0.5, mu=0.3, sigma=1.7)
    m = p.mode()
    grid = 0.3 + 1.7 * np.linspace(-2000.0, 2000.0, 40_001)
    assert abs(m - grid[np.argmax(p.log_pdf(grid))]) <= 1.7 * 0.1
    assert p.log_pdf(m) >= np.max(p.log_pdf(grid))
    # AG skewness 1 - 2 Phi(H(z)) at the mode's z
    z = (m - 0.3) / 1.7
    ag = 1.0 - 2.0 * stats.norm.cdf(np.sinh(0.5 * np.arcsinh(z) + delta))
    assert abs(ag) > 0.85 and np.sign(ag) == -np.sign(delta)


# the peak of SAS(delta -5, eta 0.1) on a normal base, by mpmath at 50 digits
SAS_FAR_MODE = 16000103137788.443
SAS_FAR_LOG_PDF = -37.63881438581696
# and of SAS(delta -50, eta 0.1)
SAS_FARTHEST_MODE = 4.331513164097236e208


def test_sas_mode_beyond_ten_million_scales():
    # the peak lies far beyond +-1e7, where a bracket held within +-1e7
    # would stop at its edge (log-density -111.9).  The search finds the
    # peak in y = H(z) to about an ulp, and z = H^(-1)(y) scales its
    # relative error by about 1 / eta = 10.
    p = _sas_params(-5.0, 0.1)
    m = p.mode()
    assert m == pytest.approx(SAS_FAR_MODE, rel=1e-13)
    assert p.log_pdf(m) == pytest.approx(SAS_FAR_LOG_PDF, rel=1e-14)
    assert _sas_params(5.0, 0.1).mode() == pytest.approx(-m, rel=1e-13)
    # out where z * z overflows, and past the largest float
    assert _sas_params(-50.0, 0.1).mode() == pytest.approx(SAS_FARTHEST_MODE, rel=1e-12)
    assert _sas_params(50.0, 1e-3).mode() == -np.finfo(float).max


def test_transform_mode_and_moment_bound():
    p = _sas_params(0.0, 1.0)
    assert p.mode() == pytest.approx(0.0, abs=1e-5)
    assert p.moment_order_bound() == np.inf
    heavy = transform.TransformParams(base.student_base(3.0), STD_LOC,
                                      transform.SasTransform(0.0, 1.0))
    assert heavy.moment_order_bound() == 3.0


def test_transform_pdf_k_identity_matches_student():
    mp2 = base.MatrixParams(np.zeros(2), np.array([[2.0, 0.3], [0.3, 1.0]]))
    idt = [transform.SasTransform(0.0, 1.0), transform.SasTransform(0.0, 1.0)]
    for x in (np.array([0.0, 0.0]), np.array([1.0, -0.7])):
        val = transform.transform_pdf_k(x, mp2, 5.0, idt)
        ref = base.student_pdf_k(x, mp2, 5.0)
        assert val == pytest.approx(ref, rel=1e-12)


def test_transform_pdf_k_normalizes():
    mp2 = base.MatrixParams(np.zeros(2), np.eye(2))
    trs = [transform.SasTransform(-0.5, 1.0), transform.SasTransform(0.3, 1.5)]
    g = np.linspace(-12.0, 12.0, 121)
    xi, yj = np.meshgrid(g, g, indexing="ij")
    vals = transform.transform_pdf_k(np.column_stack([xi.ravel(), yj.ravel()]), mp2, 8.0,
                                     trs).reshape(xi.shape)
    mass = trapezoid(trapezoid(vals, g, axis=1), g)
    assert mass == pytest.approx(1.0, abs=2e-3)
