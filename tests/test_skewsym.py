import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats
from scipy.integrate import trapezoid

from flexdist import base, infer, skewsym, twopiece
from tests import subprocess_env

# Frozen oracle values, computed once with mpmath at 40 digits.
PHI_0 = 0.3989422804014327                 # phi(0)
SN_1_1 = 0.40716159555316006               # 2 phi(1) Phi(1)
SN_M2_5 = 8.228064589257313e-25            # 2 phi(2) Phi(-10)
T2_AT_0 = 0.3535533905932738               # Gamma(1.5)/(sqrt(2 pi) Gamma(1))

GRID = np.linspace(-6.0, 6.0, 49)

# Rows (nu, delta, x, tail) of the skew-t's smaller tail, F(x) for x <= 0 and
# 1 - F(x) for x > 0, frozen from _skew_t_tail_mpmath below.
SKEW_T_TAILS = json.loads(
    (Path(__file__).with_name("skew_t_cdf_mpmath.json")).read_text())
# Rows (law, x, tail) of the smaller tails of _law_pair(law)[0], frozen
# from _skew_symmetric_tail_mpmath below.
SKEW_SYMMETRIC_TAILS = json.loads(
    (Path(__file__).with_name("skew_symmetric_cdf_mpmath.json")).read_text())

NORMAL = base.normal_base()


def _params(mu=0.0, sigma=1.0, delta=0.0):
    return skewsym.SkewSymmetric(NORMAL, base.LocationScale(mu, sigma), delta, NORMAL)


def test_pi_identity_and_zero_delta():
    # the skewing factor G(delta y) of a symmetric base's cdf G
    for skew in (NORMAL, base.student_base(3.0)):
        for delta in (-5.0, -1.0, 0.0, 0.5, 2.0):
            vals = skew.cdf(delta * GRID) + skew.cdf(-delta * GRID)
            assert np.max(np.abs(vals - 1.0)) < 1e-14
        assert np.max(np.abs(skew.cdf(0.0 * GRID) - 0.5)) < 1e-15


def test_pi_vector_delta_matches_inner_product():
    # the k-variate factor G(delta'y), through the density at Sigma = I
    mp = base.MatrixParams(np.zeros(2), np.eye(2))
    y = np.array([[0.3, -1.2], [-2.0, 0.7]])
    delta = np.array([2.0, 0.5])
    pi = (skewsym.skew_symmetric_pdf_k(y, mp, 4.0, delta, NORMAL)
          / (2.0 * base.student_pdf_k(y, mp, 4.0)))
    assert pi == pytest.approx(NORMAL.cdf(y @ delta), rel=1e-15)


def test_skew_symmetric_pdf_at_center_ignores_delta():
    for delta in (0.0, 1.0, -3.0, 17.0):
        val = _params(delta=delta).pdf(0.0)
        assert val == pytest.approx(PHI_0, abs=1e-15)


def test_skew_symmetric_pdf_reduces_to_base_at_zero_delta():
    vals = _params().pdf(GRID)
    # log 2 + log G(0) is exactly 0, so equality is bitwise
    assert np.array_equal(vals, NORMAL.pdf(GRID))
    ref = stats.norm.pdf(GRID)
    assert np.max(np.abs(vals / ref - 1.0)) < 5e-15


def test_skew_symmetric_pdf_oracle_point():
    val = _params(delta=1.0).pdf(1.0)
    assert val == pytest.approx(SN_1_1, rel=1e-14)


def test_skew_normal_pdf_wrapper_consistency():
    for delta in (0.0, 1.0, -2.5):
        for mu, sigma in ((0.0, 1.0), (1.5, 0.7)):
            direct = skewsym.SkewNormal(mu, sigma, delta).pdf(GRID)
            via = _params(mu, sigma, delta).pdf(GRID)
            assert np.max(np.abs(direct - via)) < 1e-15


def test_skew_normal_pdf_oracle_points():
    d = skewsym.SkewNormal(0.0, 1.0, 5.0)
    assert d.pdf(0.0) == pytest.approx(PHI_0, abs=1e-15)
    assert d.pdf(-2.0) == pytest.approx(SN_M2_5, rel=1e-10)


def test_skew_normal_figure_parameters_normalize():
    # left panel of the first figure: delta in {0, 1, 2, 5}
    for delta in (0.0, 1.0, 2.0, 5.0):
        d = skewsym.SkewNormal(0.0, 1.0, delta)
        mass = base.integrate(d.pdf, -np.inf, np.inf, tol=1e-10)
        assert mass == pytest.approx(1.0, abs=1e-8)


def test_skew_normal_rejects_bad_scale():
    with pytest.raises(ValueError):
        skewsym.SkewNormal(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        skewsym.SkewNormal(0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        skewsym.SkewNormal(0.0, 1.0, math.nan)


@given(st.floats(-8.0, 8.0), st.floats(-10.0, 10.0))
@settings(max_examples=120, deadline=None)
def test_skewing_identity_pointwise(x, delta):
    # pdf(x; delta) + pdf(-x; delta) = 2 phi(x): the complementary-mass law
    d = skewsym.SkewNormal(0.0, 1.0, delta)
    left = d.pdf(x)
    right = d.pdf(-x)
    ref = 2.0 * stats.norm.pdf(x)
    assert left + right == pytest.approx(ref, rel=1e-12, abs=1e-300)


def test_skewing_identity_noncentered():
    mu, sigma, delta = 1.3, 0.6, 2.0
    d = skewsym.SkewNormal(mu, sigma, delta)
    sym = stats.norm.pdf(GRID, mu, sigma)
    total = d.pdf(GRID) + d.pdf(2.0 * mu - GRID)
    assert np.max(np.abs(total - 2.0 * sym)) < 1e-12


def test_skew_t_pdf_univariate_center():
    mp1 = base.MatrixParams(np.array([0.0]), np.array([[1.0]]))
    for delta in (0.0, 1.0, -4.0):
        val = skewsym.skew_t_pdf(np.array([0.0]), mp1, 2.0, np.array([delta]))
        assert val == pytest.approx(T2_AT_0, rel=1e-14)


def test_skew_t_pdf_zero_delta_matches_symmetric_t():
    mp1 = base.MatrixParams(np.array([0.0]), np.array([[1.0]]))
    for x in GRID:
        sk = skewsym.skew_t_pdf(np.array([x]), mp1, 3.0, np.array([0.0]))
        sym = base.student_pdf_k(np.array([x]), mp1, 3.0)
        assert sk == pytest.approx(sym, rel=1e-14)


def test_skew_t_figure_parameters_normalize():
    # right panel of the first figure: nu=2, delta in {0, 1, 2, 5}
    for delta in (0.0, 1.0, 2.0, 5.0):
        d = skewsym.SkewT(0.0, 1.0, 2.0, delta)
        mass = base.integrate(d.pdf, -np.inf, np.inf, tol=1e-9)
        assert mass == pytest.approx(1.0, abs=1e-6)


def test_skew_t_class_matches_k1_formula():
    mp1 = base.MatrixParams(np.array([0.0]), np.array([[1.0]]))
    d = skewsym.SkewT(0.0, 1.0, 4.0, 1.5)
    for x in (-2.0, -0.3, 0.0, 0.9, 3.1):
        kval = skewsym.skew_t_pdf(np.array([x]), mp1, 4.0, np.array([1.5]))
        assert d.pdf(x) == pytest.approx(kval, rel=1e-12)


def test_skew_t_cdf_quantile_roundtrip():
    d = skewsym.SkewT(0.5, 2.0, 5.0, -1.0)
    for p in (0.05, 0.3, 0.5, 0.8, 0.97):
        assert d.cdf(d.quantile(p)) == pytest.approx(p, abs=1e-7)


def test_skew_t_vector_cdf_matches_scalar():
    for d, xs in ((skewsym.SkewT(0.0, 1.0, 3.0, 2.0),
                   np.array([-2.0, -0.5, 0.0, 1.0, 2.5])),
                  (skewsym.SkewT(0.0, 1.0, 2.0, 2.0),
                   np.array([-10.0, 0.3, 10.0]))):
        batch = d.cdf(xs)
        singles = np.array([d.cdf(float(x)) for x in xs])
        assert np.array_equal(batch, singles)


def test_skew_cdf_nan_is_nan():
    for d in (skewsym.SkewNormal(0.0, 1.0, 2.0),
              skewsym.SkewT(0.0, 1.0, 2.0, 2.0)):
        assert math.isnan(d.cdf(math.nan))
        out = d.cdf(np.array([math.nan, 0.0]))
        assert math.isnan(out[0]) and out[1] == pytest.approx(d.cdf(0.0))


def test_skew_quantile_accepts_arrays():
    for d in (skewsym.SkewNormal(0.5, 2.0, -3.0),
              skewsym.SkewT(0.5, 2.0, 5.0, -1.0)):
        levels = np.array([[0.05, 0.5], [0.9, 0.99]])
        out = d.quantile(levels)
        assert out.shape == levels.shape
        for q, x in zip(levels.ravel(), out.ravel()):
            assert x == d.quantile(float(q))
        assert isinstance(d.quantile(0.3), float)


def test_skew_quantiles_do_not_import_scipy_optimize():
    code = ("import sys; from flexdist import skewsym; "
            "skewsym.SkewNormal(0.0, 1.0, 2.0).quantile([0.1, 0.9]); "
            "skewsym.SkewT(0.0, 1.0, 2.0, 2.0).quantile([0.1, 0.9]); "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=subprocess_env(), check=True)
    assert out.stdout.strip() == "False"


def test_skew_t_vector_cdf_infinite_points():
    d = skewsym.SkewT(0.0, 1.0, 2.0, 2.0)
    out = d.cdf(np.array([-np.inf, 0.0, np.inf]))
    assert out[0] == 0.0 and out[2] == 1.0
    assert out[1] == pytest.approx(d.cdf(0.0), abs=1e-12)


def test_skew_t_pdf_dimension_mismatch():
    mp2 = base.MatrixParams(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        skewsym.skew_t_pdf(np.array([0.0]), mp2, 2.0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        skewsym.skew_t_pdf(np.zeros(2), mp2, 2.0, np.array([1.0]))
    with pytest.raises(ValueError):
        skewsym.skew_t_pdf(np.zeros(2), mp2, -1.0, np.array([1.0, 0.0]))


def test_skew_t_pdf_bivariate_normalization():
    # trapezoid mass over a wide box; correlated Sigma included because the
    # skewing argument stays odd in x - mu, so the 2 f G lemma still applies
    for sig in (np.eye(2), np.array([[1.0, 0.6], [0.6, 2.0]])):
        mp2 = base.MatrixParams(np.zeros(2), sig)
        g = np.linspace(-14.0, 14.0, 101)
        xi, yj = np.meshgrid(g, g, indexing="ij")
        vals = skewsym.skew_t_pdf(np.column_stack([xi.ravel(), yj.ravel()]), mp2, 4.0,
                                  np.array([1.0, -0.5])).reshape(xi.shape)
        mass = trapezoid(trapezoid(vals, g, axis=1), g)
        assert mass == pytest.approx(1.0, abs=2e-3)


def test_skew_symmetric_pdf_k_matches_univariate():
    mp1 = base.MatrixParams(np.array([0.5]), np.array([[4.0]]))
    for x in (-1.0, 0.5, 2.0):
        kval = skewsym.skew_symmetric_pdf_k(
            np.array([x]), mp1, 3.0, np.array([1.0]), base.student_base(3.0))
        p = skewsym.SkewSymmetric(base.student_base(3.0), base.LocationScale(0.5, 2.0), 1.0,
                                  base.student_base(3.0))
        uval = p.pdf(x)
        assert kval == pytest.approx(float(uval), rel=1e-12)


def test_sampler_sign_balance_at_zero_delta():
    rng = base.make_rng(101)
    x = skewsym.SkewNormal(0.0, 1.0, 0.0).sample(100_000, rng)
    frac_pos = np.mean(x > 0.0)
    assert abs(frac_pos - 0.5) < 3.0 / math.sqrt(x.size)


def test_sampler_positive_skew_for_positive_delta():
    rng = base.make_rng(202)
    x = skewsym.SkewNormal(0.0, 1.0, 5.0).sample(100_000, rng)
    centered = x - x.mean()
    assert np.mean(centered ** 3) > 0.0


def test_sampler_seed_reproducibility():
    d = skewsym.SkewNormal(0.0, 1.0, 2.0)
    a = d.sample(50, base.make_rng(7))
    b = d.sample(50, base.make_rng(7))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        skewsym.SkewNormal(0.0, 1.0, 0.0).sample(-1, base.make_rng(0))


def test_skew_symmetric_over_normal_g_is_the_skew_normal():
    # a normal base with G = Phi is the skew-normal: one sign-flip sampler
    # gives both the same draws, and the quadrature cdf meets _sn_cdf
    for delta in (-3.0, 0.0, 2.0):
        sn = skewsym.SkewNormal(0.4, 1.5, delta)
        ss = _params(0.4, 1.5, delta)
        assert np.array_equal(ss.sample(1000, base.make_rng(9)), sn.sample(1000, base.make_rng(9)))
        np.testing.assert_allclose(ss.pdf(GRID), sn.pdf(GRID), rtol=1e-14, atol=0.0)
        assert np.max(np.abs(ss.cdf(GRID) - sn.cdf(GRID))) <= 1e-15
        assert ss.mode() == pytest.approx(sn.mode(), abs=1e-13)
        assert ss.moment_order_bound() == math.inf


def test_skew_normal_sample_ks_against_cdf():
    d = skewsym.SkewNormal(0.0, 1.0, 1.0)
    x = d.sample(20_000, base.make_rng(303))
    res = stats.kstest(x, d.cdf)
    assert res.pvalue > 0.01


def test_skew_t_sample_ks_against_cdf():
    d = skewsym.SkewT(0.0, 1.0, 3.0, 2.0)
    x = d.sample(5_000, base.make_rng(404))
    grid = np.quantile(x, np.linspace(0.01, 0.99, 25))
    cdf_vals = d.cdf(grid)
    emp = np.searchsorted(np.sort(x), grid, side="right") / x.size
    assert np.max(np.abs(emp - cdf_vals)) < 0.02


def test_even_function_property():
    # |X - mu| has the half-base law regardless of delta
    half_cdf = lambda t: 2.0 * NORMAL.cdf(t) - 1.0
    for delta in (0.0, 1.0, 5.0):
        rng = base.make_rng(550 + int(delta))
        x = skewsym.SkewNormal(2.0, 1.5, delta).sample(100_000, rng)
        folded = np.abs(x - 2.0) / 1.5
        res = stats.kstest(folded, half_cdf)
        assert res.pvalue > 0.01, f"delta={delta}: p={res.pvalue}"


def test_multivariate_samplers_reproducible_and_shaped():
    mp2 = base.MatrixParams(np.array([1.0, -1.0]),
                            np.array([[2.0, 0.5], [0.5, 1.0]]))
    delta = np.array([1.0, 0.0])
    a = skewsym.sample_skew_t_k(400, mp2, 4.0, delta, base.make_rng(9))
    b = skewsym.sample_skew_t_k(400, mp2, 4.0, delta, base.make_rng(9))
    assert a.shape == (400, 2)
    assert np.array_equal(a, b)
    c = skewsym.sample_skew_symmetric_k(
        300, mp2, 4.0, delta, base.student_base(4.0), base.make_rng(9))
    assert c.shape == (300, 2)


def test_sample_skew_t_k_marginal_skew_sign():
    mp2 = base.MatrixParams(np.zeros(2), np.eye(2))
    x = skewsym.sample_skew_t_k(60_000, mp2, 8.0, np.array([3.0, 0.0]),
                                base.make_rng(37))
    first = x[:, 0] - x[:, 0].mean()
    assert np.mean(first ** 3) > 0.0


@pytest.mark.parametrize("mu, sigma, nu, delta, seed",
                         [(0.5, 2.0, 3.0, 2.0, 61), (0.0, 1.0, 8.0, -1.5, 62)])
def test_sample_skew_t_k_at_k1_is_the_skew_t(mu, sigma, nu, delta, seed):
    mp1 = base.MatrixParams(np.array([mu]), np.array([[sigma * sigma]]))
    x = skewsym.sample_skew_t_k(50_000, mp1, nu, np.array([delta]), base.make_rng(seed))
    res = stats.kstest(x[:, 0], skewsym.SkewT(mu, sigma, nu, delta).cdf)
    assert res.pvalue > 0.01


@pytest.mark.parametrize("nu, seed", [(3.0, 71), (10.0, 72)])
def test_k_samplers_keep_the_quadratic_form_of_the_t(nu, seed):
    # a sign flip leaves (x - mu)' Sigma^(-1) (x - mu) as it is, so at k = 2
    # half of it follows the spherical t's F(2, nu) under both samplers
    mp2 = base.MatrixParams(np.array([1.0, -1.0]), np.array([[2.0, 0.6], [0.6, 1.0]]))
    delta = np.array([2.0, -1.0])
    inv = np.linalg.inv(mp2.sigma_mat)
    for x in (skewsym.sample_skew_t_k(40_000, mp2, nu, delta, base.make_rng(seed)),
              skewsym.sample_skew_symmetric_k(40_000, mp2, nu, delta, base.normal_base(),
                                              base.make_rng(seed))):
        d = x - mp2.mu_vec
        res = stats.kstest(0.5 * np.einsum("ni,ij,nj->n", d, inv, d), stats.f(2, nu).cdf)
        assert res.pvalue > 0.01


def test_sfa_demo_skews_left():
    demo = infer.sfa_composite_error_demo(10_000, 1.0, 1.0, base.make_rng(7))
    assert demo.delta_hat < 0.0
    assert demo.sample.mean() < 0.0
    assert demo.skew_normal_fit.loglik >= demo.normal_fit.loglik - 1e-8
    assert demo.lr_statistic >= 0.0


def test_sfa_demo_vanishing_inefficiency():
    # true delta = 0 sits at the singular point of the information matrix,
    # so delta_hat fluctuates on the n^(-1/6) scale; the seed is frozen and
    # the LR statistic is additionally checked against the chi2(1) 95% point
    demo = infer.sfa_composite_error_demo(10_000, 1.0, 1e-6, base.make_rng(15))
    assert abs(demo.delta_hat) < 0.2
    for seed in (1, 7, 15):
        d = infer.sfa_composite_error_demo(10_000, 1.0, 1e-6, base.make_rng(seed))
        assert d.lr_statistic < 3.84


def test_sfa_demo_rejects_bad_scales():
    with pytest.raises(ValueError):
        infer.sfa_composite_error_demo(100, 0.0, 1.0, base.make_rng(0))
    with pytest.raises(ValueError):
        infer.sfa_composite_error_demo(100, 1.0, -1.0, base.make_rng(0))


def test_skew_t_log_pdf_far_tail_matches_mpmath():
    import mpmath

    # the skewing factor T_201(-800) underflows in double precision
    with mpmath.workdps(40):
        nu, delta, x = mpmath.mpf(200), mpmath.mpf(100), mpmath.mpf(-8)
        k = nu + 1
        a = delta * x * mpmath.sqrt(k / (x * x + nu))
        log_t = (mpmath.loggamma((nu + 1) / 2) - mpmath.loggamma(nu / 2)
                 - mpmath.log(nu * mpmath.pi) / 2
                 - (nu + 1) / 2 * mpmath.log(1 + x * x / nu))
        log_cdf = mpmath.log(
            mpmath.betainc(k / 2, 0.5, 0, k / (k + a * a), regularized=True) / 2)
        ref = float(mpmath.log(2) + log_t + log_cdf)
    got = skewsym.SkewT(0.0, 1.0, 200.0, 100.0).log_pdf(-8.0)
    assert got == pytest.approx(ref, rel=1e-13)
    assert ref == pytest.approx(-814.97, abs=0.01)


def _sn_cdf_mpmath(z, delta):
    """F_SN(z) = 2 int_{-inf}^z phi(t) Phi(delta t) dt at 30 digits.

    The integral runs over t = z - u / lam, lam the log integrand's slope at
    z, split at u = 0.5, 2, 8, 30 and 100: a plain split of t misreads the
    far tails.
    """
    with mpmath.workdps(30):
        z, delta = mpmath.mpf(z), mpmath.mpf(delta)
        log_f = lambda t: mpmath.log(2 * mpmath.npdf(t) * mpmath.ncdf(delta * t))  # noqa: E731
        lam = -z + delta * mpmath.npdf(delta * z) / mpmath.ncdf(delta * z)
        top = log_f(z)
        rest = mpmath.quad(lambda u: mpmath.exp(log_f(z - u / lam) - top),
                           [0, 0.5, 2, 8, 30, 100, mpmath.inf])
        return mpmath.exp(top) * rest / lam


def test_skew_normal_lower_tail_matches_mpmath():
    # where Phi(z) - 2 T(z, delta) cancels: at delta = 1, z = -5 it was 1.5e-8
    # off, at delta = 2, z = -5 off by a factor 1.4e9, and 0 at delta = 5,
    # z = -3, where F = 4.1e-55
    for delta in (0.3, 1.0, 2.0, 5.0, 20.0):
        for z in (-0.5, -1.0, -3.0, -5.0, -9.0, -20.0):
            ref = _sn_cdf_mpmath(z, delta)
            if ref < mpmath.mpf(1e-300):
                continue
            got = skewsym.SkewNormal(0.0, 1.0, delta).cdf(z)
            rel = float(abs(got - ref) / ref)
            assert rel <= (1e-13 if ref >= 1e-30 else 5e-13), (delta, z, rel)


def test_skew_normal_cdf_keeps_the_direct_form_where_it_keeps_its_digits():
    z = np.linspace(-8.0, 8.0, 161)
    for delta in (-5.0, -1.0, 0.0, 0.5, 2.0, 5.0):
        direct = special.ndtr(z) - 2.0 * special.owens_t(z, delta)
        kept = (z >= 0.0) | (direct >= 1e-2 * special.ndtr(z))
        got = skewsym.SkewNormal(0.0, 1.0, delta).cdf(z)
        assert np.array_equal(got[kept], np.clip(direct, 0.0, 1.0)[kept])


def _skew_t_tail_mpmath(x, nu, delta):
    """F(x) for x <= 0 and 1 - F(x) for x > 0, at 30 digits.

    The density is integrated over the smaller tail, split at x (1 + j / nu)
    for j = 1, 4, 16 and at 2x, 4x, 16x, 256x, 65536x, and scaled by its
    value at x so that mpmath's absolute tolerance is a relative one.
    """
    with mpmath.workdps(30):
        y, nu, d = mpmath.mpf(x), mpmath.mpf(nu), mpmath.mpf(delta)
        if y == 0:
            return mpmath.mpf(1) / 2 - mpmath.atan(d) / mpmath.pi
        if y > 0:
            y, d = -y, -d  # 1 - F(x; delta) = F(-x; -delta)

        def pdf(v):
            k = nu + 1
            t = (mpmath.exp(mpmath.loggamma(k / 2) - mpmath.loggamma(nu / 2))
                 / mpmath.sqrt(nu * mpmath.pi) * (1 + v * v / nu) ** (-k / 2))
            a = d * v * mpmath.sqrt(k / (v * v + nu))
            half = mpmath.betainc(k / 2, 0.5, 0, k / (k + a * a), regularized=True) / 2
            return 2 * t * (half if a < 0 else 1 - half)

        scale = pdf(y)
        n = max(nu, 1)
        cuts = [1 + mpmath.mpf(j) / (n + 1) for j in (1, 4, 16)] + [2, 4, 16, 256, 65536]
        points = [-mpmath.inf] + [y * c for c in reversed(cuts)] + [y]
        return mpmath.quad(lambda v: pdf(v) / scale, points) * scale


# the laws whose cdf is skewsym's smaller-tail quadrature, each named
# base_tilt: its symmetric base (logistic, normal, or t<nu>) and its skewing
# (a normal or t3 cdf, or the arctan or half-slope transformation of scale);
# each comes with its reflection, the law of -X, whose lower tail is the
# law's upper tail; and the points of each in SKEW_SYMMETRIC_TAILS, whose
# tails reach 1e-30
def _law_pair(name):
    loc = base.LocationScale(0.0, 1.0)
    sym, tilt = name.split("_")
    f = (base.logistic_base() if sym == "logistic" else NORMAL if sym == "normal"
         else base.student_base(float(sym[1:])))
    if tilt == "normal":
        return [skewsym.SkewSymmetric(f, loc, d, NORMAL) for d in (2.0, -2.0)]
    if tilt == "t3":
        return [skewsym.SkewSymmetric(f, loc, d, base.student_base(3.0)) for d in (-1.5, 1.5)]
    if tilt == "arctan":
        # -H(-x) is the arctan tilt at -c
        return [twopiece.ScaleTransformed(f, loc, twopiece.arctan_tilt_transform(c))
                for c in (0.25, -0.25)]
    return [twopiece.ScaleTransformed(f, loc, twopiece.half_slope_transform())] * 2


_CORE = [0.0, 0.2, -0.2, 1.0, -1.0, 3.0, -3.0]
SKEW_SYMMETRIC_POINTS = {
    "logistic_normal": _CORE + [8.0, -8.0, -5.0, -5.3, 20.0, 40.0, 68.5],
    "t2_t3": _CORE + [8.0, -8.0, 1e3, -1e3, -1e6, -5e14, 1e5, 5e5],
    "normal_arctan": _CORE + [-2.06, -5.0, 6.0, 8.0, 9.3],
    "t2_half": _CORE + [8.0, -8.0, 1e6, -1e6, 3e14, -3e14],
    # t bases with nu <= 1/2, whose tails fall as slowly as |x|^-(nu + 1)
    "t0.25_normal": _CORE + [8.0, -8.0, -5.0, -5.3, 50.0, 1e6, 1e116],
    "t0.5_normal": _CORE + [8.0, -8.0, -5.0, -5.3, 50.0, 1e6, 1e57],
    "t0.25_half": _CORE + [8.0, -8.0, 50.0, -50.0, 1e6, -1e6, 1e116, -1e116],
    "t0.5_half": _CORE + [8.0, -8.0, 50.0, -50.0, 1e6, -1e6, 1e57, -1e57],
}


def _skew_symmetric_tail_mpmath(name, x):
    """F(x) for x <= 0 and 1 - F(x) for x > 0 of _law_pair(name)[0], at 40
    digits: the lower tail of the law, or of its reflection at -x, in w =
    H^(-1)(x) for a transformation of scale.  The density of W is
    integrated over (-inf, w], split at w (1 + 1 / 64), w (1 + 1 / 8), 2 w,
    16 w and 256 w, and scaled by its value at w so that mpmath's absolute
    tolerance is a relative one.  Below c = min(256 w, -1) it is integrated
    in s = log(v / c), to s = 512, where a power tail |v|^-(nu + 1) decays
    as e^(-nu s), which mpmath resolves down to nu = 1/4."""
    sym, tilt = name.split("_")
    with mpmath.workdps(40):
        y, sign = (mpmath.mpf(x), 1) if x <= 0 else (-mpmath.mpf(x), -1)
        half = mpmath.mpf(1) / 2

        def t_pdf(v, nu):
            return (mpmath.gamma((nu + 1) / 2) / mpmath.gamma(nu / 2) / mpmath.sqrt(nu * mpmath.pi)
                    * (1 + v * v / nu) ** (-(nu + 1) / 2))

        def t_cdf(v, nu):
            tail = mpmath.betainc(nu / 2, half, 0, nu / (nu + v * v), regularized=True) / 2
            return tail if v < 0 else 1 - tail

        def f(v):
            if sym == "logistic":
                return mpmath.exp(-abs(v)) / (1 + mpmath.exp(-abs(v))) ** 2
            return mpmath.npdf(v) if sym == "normal" else t_pdf(v, mpmath.mpf(sym[1:]))

        def g(v):
            if tilt == "normal":
                # mpmath's erfc overflows below -1e155, where the factor is 0
                a = sign * 2 * v
                return 2 * f(v) * mpmath.ncdf(a) if a > -1e150 else mpmath.mpf(0)
            if tilt == "t3":
                return 2 * f(v) * t_cdf(sign * -1.5 * v, 3)
            if tilt == "arctan":
                return 2 * f(v) * (half + sign * mpmath.mpf(0.25) * mpmath.atan(v))
            return f(v)

        def below(c, scale):
            # past s = 512 a tail at nu >= 1/4 has less than e^-128 of its mass
            return mpmath.quad(lambda s: -c * mpmath.exp(s) * g(c * mpmath.exp(s)) / scale,
                               [0, 1, 4, 16, 64, 512])

        if tilt == "arctan":
            c = sign * mpmath.mpf(0.25)

            def h(v):
                return v / 2 + c * (v * mpmath.atan(v) - mpmath.log1p(v * v) / 2)

            bracket = (-60 * abs(y) - 1, 60 * abs(y) + 1)
            w = mpmath.findroot(lambda v: h(v) - y, bracket, solver="anderson")
        else:
            w = 2 * y if tilt == "half" else y
        scale = g(w)
        cuts = [w * k for k in (256, 16, 2)] + [w * (1 + mpmath.mpf(1) / k) for k in (8, 64)]
        far = min(cuts[0], -1)
        return (below(far, scale) + mpmath.quad(lambda v: g(v) / scale, [far, *cuts, w])) * scale


def test_skew_symmetric_cdf_table_is_mpmath():
    for name, x in (("logistic_normal", -5.3), ("t2_t3", 5e5), ("normal_arctan", -1.0)):
        row = next(r for r in SKEW_SYMMETRIC_TAILS if r[:2] == [name, x])
        assert float(_skew_symmetric_tail_mpmath(name, x)) == pytest.approx(row[2], rel=1e-15)


def test_skew_symmetric_cdf_matches_mpmath():
    # the cdf within 1e-14 everywhere, and the smaller tail, taken as the
    # lower tail of the law or of its reflection, within 1e-11 relative
    # down to 1e-30
    assert len(SKEW_SYMMETRIC_TAILS) == sum(map(len, SKEW_SYMMETRIC_POINTS.values()))
    for name in SKEW_SYMMETRIC_POINTS:
        for side in (-1.0, 1.0):
            tails = [r[2] for r in SKEW_SYMMETRIC_TAILS if r[0] == name and r[1] * side > 0.0]
            assert 1e-30 <= min(t for t in tails if t >= 1e-30) <= 1e-28, (name, side)
    for name, x, tail in SKEW_SYMMETRIC_TAILS:
        law, reflected = _law_pair(name)
        assert abs(law.cdf(x) - (tail if x <= 0.0 else 1.0 - tail)) <= 1e-14, (name, x)
        if tail >= 1e-30:
            got = (law if x <= 0.0 else reflected).cdf(-abs(x))
            assert abs(got - tail) <= 1e-11 * tail, (name, x, got, tail)


def test_skew_t_cdf_table_is_mpmath():
    for nu, delta, x in ((2.0, 2.0, -1.0), (0.5, -5.0, 50.0), (200.0, 5.0, -8.0)):
        row = next(r for r in SKEW_T_TAILS if r[:3] == [nu, delta, x])
        assert float(_skew_t_tail_mpmath(x, nu, delta)) == pytest.approx(row[3], rel=1e-15)


def test_skew_t_cdf_matches_mpmath():
    # nu in {0.5, 1, 2, 3, 30, 200}, delta in {-5, 0, 2, 5}, x in {0, +-0.2,
    # +-1, +-3, +-8, +-20, +-50}; the smaller tail comes from the law
    # reflected so that it is a lower tail, F(x; delta) = 1 - F(-x; -delta)
    assert len(SKEW_T_TAILS) == 6 * 4 * 13
    for nu, delta, x, tail in SKEW_T_TAILS:
        cdf = skewsym.SkewT(0.0, 1.0, nu, delta).cdf(x)
        assert abs(cdf - (tail if x <= 0.0 else 1.0 - tail)) <= 2.5e-14
        got = skewsym.SkewT(0.0, 1.0, nu, delta if x <= 0.0 else -delta).cdf(-abs(x))
        rel = abs(got - tail) / tail
        assert rel <= (4.1e-14 if tail >= 1e-30 else 7.7e-14), (nu, delta, x, rel)


def test_skew_t_cdf_at_large_nu():
    # just above the rule's flat radius F(y) is F(0) to 1e-18; the scale
    # density's e^-40 points must be found for any nu, and its log must not
    # carry the rounding of terms of size nu
    f0 = 0.5 - math.atan(2.0) / math.pi
    for nu in (1e4, 1e6):
        d = skewsym.SkewT(0.0, 1.0, nu, 2.0)
        y = 1.01 * d._mixture.flat
        for x in (-y, y):
            assert abs(d.cdf(x) - f0) <= 1e-14, (nu, x)
    tail = float(_skew_t_tail_mpmath(-3.0, 1e4, 2.0))
    got = skewsym.SkewT(0.0, 1.0, 1e4, 2.0).cdf(-3.0)
    assert abs(got - tail) <= 1e-12 * tail


def test_skew_t_array_roundtrip_at_large_nu():
    # an array cdf that integrated the density missed p by 7.7e-9 here
    d = skewsym.SkewT(0.3, 1.7, 1e8, 2.0)
    p = np.array([1e-12, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-6])
    assert np.max(np.abs(d.cdf(d.quantile(p)) - p)) <= 1e-12


def test_skew_t_far_quantiles_converge():
    # quantiles 1e149 and 4e199 scales out, which a span that only doubles
    # per cut step does not reach in 200 steps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = skewsym.SkewT(0.0, 1.0, 2.0, 2.0)
        x = d.quantile(1e-300)
        assert -1.5e149 < x < -1.3e149
        assert d.cdf(x) == pytest.approx(1e-300, rel=1e-13)
        d = skewsym.SkewT(0.0, 1.0, 0.5, -5.0)
        p = np.logspace(-100.0, math.log10(3e-30), 15)
        x = d.quantile(p)
        assert x[0] < -1e199 and np.all(np.diff(x) > 0.0)
        assert np.max(np.abs(d.cdf(x) - p) / p) <= 1e-13


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0, 3.0, 30.0])
def test_skew_t_quantiles_where_the_density_underflows(nu):
    # out past 1e158 scales the density is 0: the bracket spans hundreds of
    # orders of magnitude and shrinks geometrically, and a level whose cdf
    # value is exact stops there
    levels = np.logspace(-300.0, -1.0, 60)
    edge = np.finfo(float).max
    for delta in (-5.0, 0.0, 5.0):
        d = skewsym.SkewT(0.0, 1.0, nu, delta)
        x = d.quantile(levels)
        far = np.isinf(x)
        # a quantile beyond the largest float is -inf, and only there
        assert np.all(x[far] == -np.inf) and np.all(levels[far] < d.cdf(-edge))
        assert np.max(np.abs(d.cdf(x[~far]) / levels[~far] - 1.0)) <= 1e-10


def test_skew_t_cdf_rejects_nu_outside_its_rule():
    for nu in (5e-4, 2e8):
        with pytest.raises(ValueError):
            skewsym.SkewT(0.0, 1.0, nu, 2.0).cdf(0.3)


def test_skew_cdfs_take_any_shape():
    # -3 and -6 lie where the skew-normal's direct form cancels
    x = np.array([[-3.0, -0.5], [1.0, -6.0]])
    sn = skewsym.SkewNormal(0.0, 1.0, 2.0)
    assert np.array_equal(sn.cdf(x).ravel(), [sn.cdf(float(v)) for v in x.ravel()])
    st_ = skewsym.SkewT(0.0, 1.0, 2.0, 2.0)
    out = st_.cdf(x)
    assert out.shape == x.shape
    assert np.array_equal(out.ravel(), [st_.cdf(float(v)) for v in x.ravel()])
