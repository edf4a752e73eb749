import math

import numpy as np
import pytest
from scipy import stats

from flexdist import base, twopiece

# Frozen oracle values, computed once with mpmath at 40 digits.
TP_ISF2_CDF_M1 = 0.009100052779271683      # (a/s_l) Phi(-2), a=0.8, s_l=2
PHI_0 = 0.3989422804014327

GRID = np.linspace(-8.0, 8.0, 65)
NORMAL = base.normal_base()
STD_LOC = base.LocationScale(0.0, 1.0)

ISF_GRID = [0.5, 1.0, 2.0, 5.0]
EPS_GRID = [-0.9, -0.5, 0.0, 0.5, 0.9]


def _isf(delta, mu=0.0, sigma=1.0, b=NORMAL):
    return twopiece.TwoPieceParams(b, base.LocationScale(mu, sigma),
                                   twopiece.IsfScaling(delta))


def _eps(delta, mu=0.0, sigma=1.0, b=NORMAL):
    return twopiece.TwoPieceParams(b, base.LocationScale(mu, sigma),
                                   twopiece.EpsilonScaling(delta))


def test_scaling_factors_and_constants():
    isf = twopiece.IsfScaling(2.0)
    assert isf.s_left == 2.0
    assert isf.s_right == 0.5
    assert isf.a == pytest.approx(0.8, rel=1e-15)
    eps = twopiece.EpsilonScaling(0.5)
    assert eps.s_left == pytest.approx(2.0, rel=1e-15)
    assert eps.s_right == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert eps.a == 1.0


def test_scaling_validation():
    with pytest.raises(ValueError):
        twopiece.IsfScaling(0.0)
    with pytest.raises(ValueError):
        twopiece.IsfScaling(-1.0)
    with pytest.raises(ValueError):
        twopiece.EpsilonScaling(1.0)
    with pytest.raises(ValueError):
        twopiece.EpsilonScaling(-1.0)
    # open-interval guard just inside the edge
    twopiece.EpsilonScaling(1.0 - 1e-8)
    with pytest.raises(ValueError):
        twopiece.EpsilonScaling(1.0 - 1e-10)


def test_isf_unit_delta_is_base_density():
    p = _isf(1.0)
    assert np.max(np.abs(p.pdf(GRID) - NORMAL.pdf(GRID))) < 1e-15


def test_figure3_parameter_sets_normalize():
    for delta in (1.0, 2.0, 3.0, 10.0):
        p = _isf(delta)
        mass = base.integrate(p.pdf, -np.inf, np.inf, tol=1e-10)
        assert mass == pytest.approx(1.0, abs=1e-8), delta
    t2 = base.student_base(2.0)
    for delta in (0.0, 0.1, 0.5, 0.9):
        p = _eps(delta, b=t2)
        mass = base.integrate(p.pdf, -np.inf, np.inf, tol=1e-10)
        assert mass == pytest.approx(1.0, abs=1e-8), delta


def test_side_masses_examples():
    assert twopiece.side_masses(twopiece.IsfScaling(1.0)) == (0.5, 0.5)
    left, right = twopiece.side_masses(twopiece.IsfScaling(2.0))
    assert left == pytest.approx(0.2, rel=1e-15)
    assert left + right == 1.0
    left_e, right_e = twopiece.side_masses(twopiece.EpsilonScaling(0.5))
    assert left_e == pytest.approx(0.25, rel=1e-15)
    assert left_e + right_e == 1.0


@pytest.mark.parametrize("scheme", [twopiece.IsfScaling(d) for d in ISF_GRID]
                         + [twopiece.EpsilonScaling(d) for d in EPS_GRID])
def test_side_masses_match_branch_quadrature(scheme):
    p = twopiece.TwoPieceParams(NORMAL, STD_LOC, scheme)
    left, right = twopiece.side_masses(scheme)
    left_q = base.integrate(p.pdf, -np.inf, 0.0, tol=1e-11)
    right_q = base.integrate(p.pdf, 0.0, np.inf, tol=1e-11)
    assert left_q == pytest.approx(left, abs=1e-8)
    assert right_q == pytest.approx(right, abs=1e-8)


def test_branch_continuity_at_mu():
    eps_small = 1e-9
    bases = [NORMAL, base.student_base(2.0), base.logistic_base()]
    schemes = ([twopiece.IsfScaling(d) for d in ISF_GRID]
               + [twopiece.EpsilonScaling(d) for d in EPS_GRID])
    for b in bases:
        for scheme in schemes:
            p = twopiece.TwoPieceParams(b, base.LocationScale(0.7, 1.3),
                                        scheme)
            below = float(p.pdf(0.7 - eps_small))
            above = float(p.pdf(0.7 + eps_small))
            assert abs(below - above) < 1e-8
            # both branches evaluate the base at 0, so the limit is exact
            assert float(p.pdf(0.7)) == pytest.approx(
                scheme.a * float(b.pdf(0.0)) / 1.3, rel=1e-14)


def test_cdf_at_mu_is_left_mass():
    for scheme in (twopiece.IsfScaling(2.0), twopiece.EpsilonScaling(-0.4)):
        p = twopiece.TwoPieceParams(NORMAL, base.LocationScale(1.5, 0.8),
                                    scheme)
        left, _ = twopiece.side_masses(scheme)
        assert float(p.cdf(1.5)) == pytest.approx(left, abs=1e-15)
        assert p.quantile(left) == pytest.approx(1.5, abs=1e-12)


def test_cdf_oracle_point_and_quadrature():
    p = _isf(2.0)
    got = float(p.cdf(-1.0))
    assert got == pytest.approx(TP_ISF2_CDF_M1, rel=1e-12)
    quad = base.integrate(p.pdf, -np.inf, -1.0, tol=1e-11)
    assert got == pytest.approx(quad, abs=1e-8)


def test_quantile_inverts_cdf():
    ps = [_isf(2.0), _isf(0.5), _eps(0.6), _eps(-0.8),
          _isf(3.0, mu=2.0, sigma=0.5, b=base.student_base(3.0))]
    levels = [1e-4, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0 - 1e-4]
    for p in ps:
        for q in levels:
            x = float(p.quantile(q))
            assert float(p.cdf(x)) == pytest.approx(q, abs=1e-9)


def test_quantile_rejects_bad_levels():
    p = _isf(2.0)
    for bad in (-0.1, 2.0):
        with pytest.raises(ValueError):
            p.quantile(bad)
    assert p.quantile(0.0) == -math.inf
    assert p.quantile(1.0) == math.inf


def test_cdf_monotone_on_grid():
    for p in (_isf(2.0), _eps(-0.7, b=base.student_base(2.0))):
        vals = p.cdf(GRID)
        assert np.all(np.diff(vals) > 0.0)
        assert vals[0] >= 0.0 and vals[-1] <= 1.0


def test_epsilon_isf_reparameterization():
    # eps(mu, s, de) coincides with isf(mu, s di (1-de), di), di^2=(1+de)/(1-de)
    de = 0.5
    di = math.sqrt((1.0 + de) / (1.0 - de))
    p_eps = _eps(de, mu=0.3, sigma=1.2)
    p_isf = _isf(di, mu=0.3, sigma=1.2 * di * (1.0 - de))
    assert np.max(np.abs(p_eps.pdf(GRID) - p_isf.pdf(GRID))) < 1e-14
    assert p_eps.mode() == pytest.approx(p_isf.mode(), abs=1e-5)


def test_logf_partials_are_isf_only():
    # fits run in ISF coordinates under either scaling, so only ISF's
    # partials exist; epsilon still gives values
    z = np.array([-1.0, 0.5])
    assert np.allclose(twopiece.two_piece_logf(z, 0.5, scaling="epsilon"),
                       _eps(0.5).log_pdf(z), rtol=0.0, atol=1e-15)
    with pytest.raises(ValueError, match="isf scaling only"):
        twopiece.two_piece_logf(z, 0.5, scaling="epsilon", grad=(True,))


def test_mode_is_mu():
    for p in (_isf(2.0), _isf(0.3), _eps(0.9), _eps(-0.5),
              _isf(5.0, mu=-2.0, sigma=3.0, b=base.student_base(2.0))):
        assert p.mode() == p.loc.mu
        # the numeric argmax lands on mu as well: rescaling never moves it
        found = base.golden_section_max(
            p.log_pdf, p.loc.mu - 10.0 * p.loc.sigma,
            p.loc.mu + 10.0 * p.loc.sigma, tol=1e-9)
        assert found == pytest.approx(p.loc.mu, abs=1e-6)


def test_sampler_below_mu_fraction():
    p = _isf(2.0, mu=1.0, sigma=2.0)
    x = p.sample(100_000, base.make_rng(21))
    frac = np.mean(x < 1.0)
    se = math.sqrt(0.2 * 0.8 / x.size)
    assert abs(frac - 0.2) < 3.0 * se


def test_sampler_symmetric_balance():
    p = _isf(1.0)
    x = p.sample(100_000, base.make_rng(22))
    assert abs(np.mean(x < 0.0) - 0.5) < 3.0 / math.sqrt(x.size)


def test_sampler_seed_reproducibility():
    p = _eps(0.4)
    a = p.sample(128, base.make_rng(5))
    b = p.sample(128, base.make_rng(5))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        p.sample(-1, base.make_rng(5))


def test_sampler_ks_against_cdf():
    for p in (_isf(2.0), _eps(-0.6, b=base.student_base(2.0))):
        x = p.sample(30_000, base.make_rng(23))
        res = stats.kstest(x, lambda t: p.cdf(t))
        assert res.pvalue > 0.01


def test_moment_order_bound_passthrough():
    assert _isf(2.0).moment_order_bound() == np.inf
    assert _isf(2.0, b=base.student_base(2.0)).moment_order_bound() == 2.0


def test_half_slope_transform_density():
    st = twopiece.half_slope_transform()
    vals = twopiece.scale_transformed_pdf(GRID, NORMAL, st)
    ref = 2.0 * NORMAL.pdf(2.0 * GRID)
    assert np.max(np.abs(vals - ref)) < 1e-13
    mass = base.integrate(
        lambda x: twopiece.scale_transformed_pdf(x, NORMAL, st),
        -np.inf, np.inf, tol=1e-10)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_arctan_tilt_transform_normalizes():
    for c in (0.05, -0.2, 0.3):
        st = twopiece.arctan_tilt_transform(c)
        mass = base.integrate(
            lambda x: twopiece.scale_transformed_pdf(x, NORMAL, st),
            -12.0, 12.0, tol=1e-10)
        assert mass == pytest.approx(1.0, abs=1e-7), c


def test_arctan_tilt_asymmetric():
    st = twopiece.arctan_tilt_transform(0.3)
    vals = twopiece.scale_transformed_pdf(GRID, NORMAL, st)
    assert np.max(np.abs(vals - vals[::-1])) > 1e-3


def test_scale_transform_derivative_condition():
    # differentiating H(x) - H(-x) = x gives H'(x) + H'(-x) = 1
    h = 1e-6
    st = twopiece.arctan_tilt_transform(0.25)
    for x in np.linspace(-4.0, 4.0, 17):
        dpos = (st.h_func(x + h) - st.h_func(x - h)) / (2.0 * h)
        dneg = (st.h_func(-x + h) - st.h_func(-x - h)) / (2.0 * h)
        assert dpos + dneg == pytest.approx(1.0, abs=1e-6)


def test_scale_transform_rejects_invalid_maps():
    with pytest.raises(ValueError):
        twopiece.ScaleTransform(lambda x: x)          # H(x)-H(-x) = 2x
    with pytest.raises(ValueError):
        twopiece.ScaleTransform(lambda x: 0.25 * x)   # gives x/2, not x
    with pytest.raises(ValueError):
        twopiece.arctan_tilt_transform(0.5)           # breaks monotonicity


def test_scale_transform_inverse_roundtrip():
    st = twopiece.arctan_tilt_transform(0.2)
    for x in (-3.0, -0.5, 0.0, 1.0, 4.0):
        y = st.h_func(x)
        assert st.inverse(y) == pytest.approx(x, abs=1e-9)


def test_scale_transformed_class_location_scale():
    st = twopiece.half_slope_transform()
    d = twopiece.ScaleTransformed(NORMAL, base.LocationScale(2.0, 3.0), st)
    # 2 f(2 z)/sigma at z = (x-mu)/sigma
    assert float(d.pdf(2.0)) == pytest.approx(2.0 * PHI_0 / 3.0, rel=1e-14)
    mass = base.integrate(d.pdf, -np.inf, np.inf, tol=1e-10)
    assert mass == pytest.approx(1.0, abs=1e-8)
