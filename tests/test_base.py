import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats
from scipy.integrate import quad, trapezoid

from flexdist import base, infer
from tests import subprocess_env

# Frozen oracle values, computed once with mpmath at 40 digits.
INV_SQRT_2PI = 0.3989422804014327          # 1/sqrt(2 pi)
PHI_AT_1 = 0.24197072451914334             # exp(-1/2)/sqrt(2 pi)
Z_975 = 1.9599639845400543                 # sqrt(2) * erfinv(0.95)
INV_2PI = 0.15915494309189535              # Gamma(2)/(2 pi Gamma(1)) = 1/(2 pi)

GRID_41 = np.linspace(-8.0, 8.0, 41)
P_LEVELS = np.array([0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999])

ALL_BASES = [
    base.normal_base(),
    base.student_base(1.0),
    base.student_base(2.0),
    base.student_base(5.0),
    base.student_base(37.0),
    base.logistic_base(),
]


def test_location_scale_validation():
    base.LocationScale(0.0, 1.0)
    with pytest.raises(ValueError):
        base.LocationScale(0.0, 0.0)
    with pytest.raises(ValueError):
        base.LocationScale(0.0, -2.0)
    with pytest.raises(ValueError):
        base.LocationScale(math.inf, 1.0)


def _normal(ls):
    return base.LocatedBase(base.normal_base(), ls)


def test_normal_pdf_values():
    ls = base.LocationScale(0.0, 1.0)
    assert _normal(ls).pdf(0.0) == pytest.approx(INV_SQRT_2PI, abs=1e-15)
    assert _normal(ls).pdf(1.0) == pytest.approx(PHI_AT_1, abs=1e-15)
    for sigma in (0.5, 2.0, 7.0):
        ls2 = base.LocationScale(3.0, sigma)
        assert _normal(ls2).pdf(3.0) == pytest.approx(
            INV_SQRT_2PI / sigma, rel=1e-14)


def test_student_pdf_k_univariate_cauchy_at_zero():
    mp1 = base.MatrixParams(np.array([0.0]), np.array([[1.0]]))
    assert base.student_pdf_k(np.array([0.0]), mp1, 1.0) == pytest.approx(
        1.0 / math.pi, rel=1e-14)


def test_student_pdf_k_large_nu_approaches_normal():
    mp1 = base.MatrixParams(np.array([0.0]), np.array([[1.0]]))
    ls = base.LocationScale(0.0, 1.0)
    for x in (0.0, 1.0, 2.0):
        t_val = base.student_pdf_k(np.array([x]), mp1, 1e6)
        assert abs(t_val - _normal(ls).pdf(x)) < 1e-3


def test_student_pdf_k_bivariate_at_origin():
    mp2 = base.MatrixParams(np.zeros(2), np.eye(2))
    assert base.student_pdf_k(np.zeros(2), mp2, 2.0) == pytest.approx(
        INV_2PI, rel=1e-14)


def test_student_pdf_k_normalization():
    # trapezoid mass in t over the plane mapped by x = tan(t), the grid
    # evaluated as one stack of points
    mp2 = base.MatrixParams(np.zeros(2), np.array([[2.0, 0.5], [0.5, 1.0]]))
    t = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 201)
    s = np.tan(t[1:-1])
    x0, x1 = np.meshgrid(s, s, indexing="ij")
    vals = np.zeros((t.size, t.size))
    vals[1:-1, 1:-1] = (base.student_pdf_k(np.column_stack([x0.ravel(), x1.ravel()]), mp2, 3.0)
                        .reshape(x0.shape) * np.outer(1.0 + s * s, 1.0 + s * s))
    total = trapezoid(trapezoid(vals, t, axis=1), t)
    assert total == pytest.approx(1.0, abs=1e-4)


def test_student_pdf_k_univariate_normalization():
    for nu in (1.0, 2.0, 5.0):
        mp1 = base.MatrixParams(np.array([0.0]), np.array([[1.0]]))
        total = base.integrate(
            lambda x: base.student_pdf_k(x[:, None], mp1, nu),
            -np.inf, np.inf, tol=1e-8)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_matrix_params_validation():
    with pytest.raises(ValueError):
        base.MatrixParams(np.zeros(2), np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        base.MatrixParams(np.zeros(3), np.eye(2))
    with pytest.raises(ValueError):
        base.MatrixParams(np.zeros(2), np.array([[1.0, 0.3], [0.2, 1.0]]))
    with pytest.raises(ValueError):
        base.MatrixParams(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    mp2 = base.MatrixParams(np.zeros(2), np.eye(2))
    for x in (np.zeros(3), np.zeros((4, 3)), np.zeros((1, 2, 2)), 0.0):
        with pytest.raises(ValueError):
            base.student_pdf_k(x, mp2, 2.0)


def test_array_records_compare_by_identity_and_hash():
    # records holding arrays: == on the arrays would raise, so equality is
    # identity, and the hash is the object's
    for make in (lambda: base.MatrixParams(np.zeros(2), np.eye(2)),
                 lambda: infer.SfaDemo(np.zeros(3), None, None)):
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, b, a}) == 2 and hash(a) == hash(a)


def test_matrix_params_root():
    sig = np.array([[2.0, 0.5], [0.5, 1.0]])
    mp2 = base.MatrixParams(np.array([1.0, -1.0]), sig)
    assert np.allclose(mp2.root @ mp2.root, sig, rtol=0.0, atol=1e-15)
    assert np.allclose(mp2.root_inv @ mp2.root, np.eye(2), rtol=0.0, atol=1e-15)
    assert mp2.half_log_det == pytest.approx(0.5 * math.log(np.linalg.det(sig)), rel=1e-15)
    # locate inverts the density's standardization; a point gives a float,
    # a stack one value per point
    y = np.array([[0.3, -2.0], [1.5, 0.25]])
    spherical = base.MatrixParams(np.zeros(2), np.eye(2))
    assert np.allclose(base.student_pdf_k(mp2.locate(y), mp2, 3.0),
                       base.student_pdf_k(y, spherical, 3.0) / math.sqrt(np.linalg.det(sig)),
                       rtol=1e-14, atol=0.0)
    assert isinstance(base.student_pdf_k(np.zeros(2), mp2, 3.0), float)


def test_integrate_normal_normalization():
    nb = base.normal_base()
    assert base.integrate(nb.pdf, -np.inf, np.inf, tol=1e-10) == pytest.approx(
        1.0, abs=1e-10)


def test_integrate_normal_second_moment():
    nb = base.normal_base()
    val = base.integrate(lambda x: x * x * nb.pdf(x), -np.inf, np.inf, tol=1e-9)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_integrate_student_normalization():
    tb = base.student_base(3.0)
    assert base.integrate(tb.pdf, -np.inf, np.inf, tol=1e-9) == pytest.approx(
        1.0, abs=1e-8)


def test_integrate_finite_and_degenerate():
    assert base.integrate(lambda x: x * x, 0.0, 1.0, tol=1e-12) == pytest.approx(
        1.0 / 3.0, abs=1e-13)
    assert base.integrate(lambda x: x, 2.0, 2.0) == 0.0
    fwd = base.integrate(np.exp, 0.0, 1.0, tol=1e-12)
    rev = base.integrate(np.exp, 1.0, 0.0, tol=1e-12)
    assert fwd == pytest.approx(-rev, rel=1e-14)


def test_integrate_half_infinite():
    nb = base.normal_base()
    left = base.integrate(nb.pdf, -np.inf, 0.0, tol=1e-10)
    right = base.integrate(nb.pdf, 0.0, np.inf, tol=1e-10)
    assert left == pytest.approx(0.5, abs=1e-10)
    assert right == pytest.approx(0.5, abs=1e-10)


def test_integrate_budget_exhaustion_raises():
    with pytest.raises(base.IntegrationError):
        base.integrate(lambda x: np.sin(1.0 / (x + 1e-12)), 0.0, 1.0,
                       tol=1e-14, max_intervals=8)


def test_integrate_stops_at_a_relative_floor():
    # the error estimate of a 1e12 integral cannot fall below 1e-8: the
    # quadrature stops at some ulps of its running estimate instead
    nb = base.normal_base()
    val = base.integrate(lambda x: 1e12 * nb.pdf(x), -np.inf, np.inf, tol=1e-8)
    assert val == pytest.approx(1e12, rel=1e-13)


def test_integrate_ends_keep_their_own_bits():
    # an array of ends, with per-end data, gives each end the bits of its
    # own float call, whatever the other ends
    nb = base.normal_base()
    a = np.array([-np.inf, -3.0, 0.0, 2.0, 5.0, -np.inf, 1.0])
    b = np.array([np.inf, 1.0, np.inf, 2.0, -1.0, -2.0, 40.0])
    scale = np.array([1.0, 0.5, 2.0, 3.0, 1e12, 1.0, 7.0])

    def f(x, s):
        return s * nb.pdf(x)

    got = base.integrate(f, a, b, tol=1e-10, args=(scale,))
    for i in range(a.size):
        one = base.integrate(f, a[i], b[i], tol=1e-10, args=(scale[i:i + 1],))
        assert isinstance(one, float) and got[i] == one, i
        for rows in (np.arange(i + 1), np.arange(i, a.size)):
            part = base.integrate(f, a[rows], b[rows], tol=1e-10, args=(scale[rows],))
            assert part[rows == i][0] == one, (i, rows)
    # each end stops at its own bound: the 1e12 end at its relative floor,
    # far above tol, and the others at tol
    exact = scale * (special.ndtr(b) - special.ndtr(a))
    assert got[4] == pytest.approx(exact[4], rel=1e-13)
    assert np.max(np.abs(np.delete(got - exact, 4))) <= 1e-10
    # and each end's panel budget is its own: the easy ends meet theirs
    # alone, and beside an end that exhausts its own the call raises
    def wild(x):
        return np.sin(1.0 / (x + 1e-12))

    easy = base.integrate(wild, np.array([2.0, 4.0]), np.array([3.0, 5.0]), tol=1e-14,
                          max_intervals=8)
    assert easy == pytest.approx([quad(wild, 2.0, 3.0, epsabs=1e-14)[0],
                                  quad(wild, 4.0, 5.0, epsabs=1e-14)[0]], abs=1e-13)
    with pytest.raises(base.IntegrationError):
        base.integrate(wild, np.array([2.0, 0.0, 4.0]), np.array([3.0, 1.0, 5.0]), tol=1e-14,
                       max_intervals=8)


def test_find_root_normal_median():
    nb = base.normal_base()
    r = base.find_root(lambda x: nb.cdf(x) - 0.5, -1.0, 1.0)
    assert abs(r) < 1e-12


def test_find_root_normal_upper_tail():
    nb = base.normal_base()
    r = base.find_root(lambda x: nb.cdf(x) - 0.975, 0.0, 10.0)
    assert r == pytest.approx(Z_975, abs=1e-9)


def test_find_root_degenerate_bracket():
    assert base.find_root(lambda x: x - 2.0, 2.0, 2.0) == 2.0


def test_find_root_no_sign_change():
    with pytest.raises(base.BracketError):
        base.find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_base_construction_validation():
    with pytest.raises(ValueError):
        base.SymmetricBase("laplace")
    with pytest.raises(ValueError):
        base.student_base(0.0)
    with pytest.raises(ValueError):
        base.student_base(-1.0)
    with pytest.raises(ValueError):
        base.SymmetricBase(base.NORMAL, 4.0)


@pytest.mark.parametrize("b", ALL_BASES, ids=lambda b: f"{b.kind}-{b.nu}")
def test_pdf_symmetric_on_grid(b):
    np.testing.assert_array_equal(b.pdf(GRID_41), b.pdf(-GRID_41))


@pytest.mark.parametrize("b", ALL_BASES, ids=lambda b: f"{b.kind}-{b.nu}")
def test_cdf_reflection(b):
    np.testing.assert_allclose(b.cdf(GRID_41) + b.cdf(-GRID_41), 1.0,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("b", ALL_BASES, ids=lambda b: f"{b.kind}-{b.nu}")
def test_quantile_cdf_roundtrip(b):
    q = b.quantile(P_LEVELS)
    np.testing.assert_allclose(b.cdf(q), P_LEVELS, rtol=0, atol=1e-9)


def test_student_cdf_matches_quadrature():
    tb = base.student_base(2.5)
    for x in (-3.0, -1.0, 0.5, 2.0):
        direct = tb.cdf(x)
        oracle = base.integrate(tb.pdf, -np.inf, x, tol=1e-10)
        assert direct == pytest.approx(oracle, abs=1e-9)


def test_logistic_closed_forms():
    lb = base.logistic_base()
    assert lb.cdf(0.0) == 0.5
    assert lb.quantile(0.5) == 0.0
    x = 1.7
    p = 1.0 / (1.0 + math.exp(-x))
    assert lb.cdf(x) == pytest.approx(p, rel=1e-15)
    assert lb.quantile(p) == pytest.approx(x, rel=1e-12)
    assert lb.pdf(0.0) == pytest.approx(0.25, rel=1e-14)


@pytest.mark.parametrize("b", [base.normal_base(), base.student_base(2.0),
                               base.logistic_base()],
                         ids=["normal", "t2", "logistic"])
def test_sampler_ks_band(b):
    rng = base.make_rng(20250817)
    x = b.sample(100_000, rng)
    d = stats.kstest(x, b.cdf).statistic
    assert d < 1.95 / math.sqrt(100_000) * 1.5


def test_sampler_seed_reproducibility():
    b = base.student_base(4.0)
    x1 = b.sample(1000, base.make_rng(7))
    x2 = b.sample(1000, base.make_rng(7))
    np.testing.assert_array_equal(x1, x2)
    assert b.sample(0, base.make_rng(7)).shape == (0,)


def test_moment_order_bound():
    assert base.normal_base().moment_order_bound() == math.inf
    assert base.logistic_base().moment_order_bound() == math.inf
    assert base.student_base(2.0).moment_order_bound() == 2.0


def test_golden_section_max():
    arg = base.golden_section_max(lambda x: -(x - 2.0) ** 2, 0.0, 5.0)
    assert arg == pytest.approx(2.0, abs=1e-7)
    nb = base.normal_base()
    assert base.golden_section_max(nb.log_pdf, -10.0, 10.0) == pytest.approx(
        0.0, abs=1e-7)
    # one bracket per row: each row as alone, its data cut to the rows left
    lo, hi = np.array([0.0, -3.0, 1.0]), np.array([5.0, 4.0, 1.5])
    tol, centre = np.array([1e-8, 1e-3, 1e-12]), np.array([2.0, -1.0, 1.2])
    rows = base.golden_section_max(lambda x, c: -(x - c) ** 2, lo, hi, tol, (centre,))
    for i in range(3):
        alone = base.golden_section_max(lambda x: -(x - centre[i]) ** 2, lo[i], hi[i], tol[i])
        assert rows[i] == alone


def test_golden_section_max_rejects_a_bracket_wider_than_the_floats():
    # b - a overflows to inf, from which no step could find the peak
    with pytest.raises(ValueError, match="wider than the largest float"):
        base.golden_section_max(lambda x: -np.abs(x - 0.28), -8.99e307, 8.99e307)


def test_score_peak():
    # the root of the score of log f = -(x - c)^2 / 2, on brackets of any width
    for c, lo, hi in ((2.0, 0.0, 5.0), (-1e12, -1e13, 1.0), (0.28, -1e300, 1e300)):
        arg = base.score_peak(lambda x: c - x, lo, hi)
        assert arg == pytest.approx(c, rel=1e-12, abs=1e-12)
    # a density that only falls (rises) over the bracket peaks at its lower
    # (upper) end
    assert base.score_peak(lambda x: -np.ones_like(x), -1.0, 3.0) == -1.0
    assert base.score_peak(lambda x: np.ones_like(x), -1.0, 1e300) == 1e300


def test_golden_section_max_stops_at_float_spacing():
    # a tol below the float spacing at the bracket can never be met; the
    # search must stop within a few ulps instead, and runs in a child under a
    # timeout so that a search that never stops fails this test
    code = ("import numpy as np; from flexdist import base; "
            "f = lambda x, c: -(x - c) ** 2; "
            "print(base.golden_section_max(lambda x: f(x, 1e9 + 0.25), 1e9 - 1.0, 1e9 + 1.0, 1e-12)); "
            "rows = base.golden_section_max(f, np.array([1e9 - 1.0, 0.0]), np.array([1e9 + 1.0, 5.0]), "
            "np.array([1e-12, 1e-8]), (np.array([1e9 + 0.25, 2.0]),)); "
            "print(rows[1] == base.golden_section_max(lambda x: f(x, 2.0), 0.0, 5.0))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=subprocess_env(), timeout=60, check=True)
    arg, same = out.stdout.split()
    assert abs(float(arg) - (1e9 + 0.25)) < 1e-6
    assert same == "True"


def test_invert_cdf_matches_quantile():
    nb = base.normal_base()
    levels = np.array([0.025, 0.5, 0.975])
    x = base.invert_cdf(nb.cdf, nb.pdf, levels, 0.0, 1.0)
    assert np.max(np.abs(x - nb.quantile(levels))) <= 1e-9
    # each level's iterates are its own: an array call gives the scalar bits
    for q, xq in zip(levels, x):
        assert base.invert_cdf(nb.cdf, nb.pdf, q, 0.0, 1.0)[()] == xq
    edges = base.invert_cdf(nb.cdf, nb.pdf, np.array([0.0, 1.0, np.nan]), 0.0, 1.0)
    assert edges[0] == -np.inf and edges[1] == np.inf and np.isnan(edges[2])
    with pytest.raises(ValueError):
        base.invert_cdf(nb.cdf, nb.pdf, 1.5, 0.0, 1.0)


def test_invert_cdf_evaluates_each_point_once():
    # a span of 0.1 from -1 must grow to reach the 0.999 quantile; the level
    # never asks for the same point twice
    nb = base.normal_base()
    seen = []

    def cdf(x):
        seen.extend(x.tolist())
        return nb.cdf(x)

    x = base.invert_cdf(cdf, nb.pdf, 0.999, -1.0, 0.1)
    assert x == pytest.approx(nb.quantile(0.999), abs=1e-9)
    assert len(seen) == len(set(seen))


def test_invert_cdf_nan_and_unconverged_levels():
    nb = base.normal_base()
    nan_cdf = lambda x: np.full_like(x, np.nan)  # noqa: E731
    assert np.isnan(base.invert_cdf(nan_cdf, nb.pdf, 0.3, 0.0, 1.0))
    with pytest.raises(base.NumericsError):
        # from 1e100, a span of 1e-100 needs about 600 doublings to move x
        base.invert_cdf(nb.cdf, nb.pdf, 0.3, 1e100, 1e-100)


@given(st.floats(-30.0, 30.0))
def test_pdf_symmetry_property(x):
    for b in (base.normal_base(), base.student_base(3.0), base.logistic_base()):
        assert abs(b.pdf(x) - b.pdf(-x)) <= 1e-15


@given(st.floats(0.001, 0.999))
@settings(max_examples=50)
def test_quantile_roundtrip_property(p):
    for b in (base.normal_base(), base.student_base(2.0), base.logistic_base()):
        assert abs(b.cdf(b.quantile(p)) - p) < 1e-9


def test_quantile_domain_checks():
    nb = base.normal_base()
    with pytest.raises(ValueError):
        nb.quantile(-0.1)
    with pytest.raises(ValueError):
        nb.quantile(1.1)
    assert nb.quantile(0.0) == -math.inf
    assert nb.quantile(1.0) == math.inf


def _mp_log_t_cdf(df, t):
    import mpmath

    with mpmath.workdps(40):
        df, t = mpmath.mpf(df), mpmath.mpf(t)
        x = df / (df + t * t)
        return float(mpmath.log(mpmath.betainc(df / 2, 0.5, 0, x, regularized=True) / 2))


def test_log_t_norm_takes_each_form_on_its_own_rows():
    # nu straddles a = nu / 2 = 20, where the direct form hands over to the
    # series; a mixed batch keeps the bits of both forms taken everywhere
    nu = np.concatenate((np.linspace(0.5, 39.5, 40), [np.nextafter(40.0, 0.0), 40.0],
                         [np.nextafter(40.0, 50.0)], np.linspace(40.5, 200.0, 50), [1e4, 1e8]))
    a = 0.5 * nu
    direct = special.gammaln(a + 0.5) - special.gammaln(a) - 0.5 * np.log(nu * math.pi)
    b = 1.0 / (a * a)
    r = 1 / 192 + b * (-1 / 640 + b * (17 / 14336 + b * (-31 / 18432 + b * 691 / 180224)))
    ref = np.where(a < 20.0, direct, (b * r - 1 / 8) / a - base.LOG_SQRT_TWO_PI)
    assert np.array_equal(base._log_t_norm(nu), ref)
    # as the kernels pass it, one nu per parameter row
    assert np.array_equal(base._log_t_norm(nu[:, None]), ref[:, None])
    assert np.array_equal(base._log_t_norm(nu[::-1]), ref[::-1])
    assert np.array_equal(base._log_t_norm(nu[:40]), ref[:40])
    for v, want in zip(nu, ref):
        assert base._log_t_norm(float(v)) == want


def test_log_stdtr_lower_tail_matches_mpmath():
    # stdtr underflows at the first two points; at the third it does not
    for df, t in ((201.0, -800.0), (201.0, -476.4), (1e4, -46.95), (3.0, -1e5),
                  (2.5, -40.0)):
        got = float(base.log_stdtr(np.array([df]), np.array([t]))[0])
        assert got == pytest.approx(_mp_log_t_cdf(df, t), rel=1e-14), (df, t)


def test_log_stdtr_is_log_of_stdtr_where_it_is_normal():
    from scipy import special

    df = np.array([0.7, 3.0, 201.0])[:, None]
    t = np.linspace(-30.0, 30.0, 61)[None, :]
    assert np.array_equal(base.log_stdtr(df, t), np.log(special.stdtr(df, t)))
    assert base.log_stdtr(np.array([5.0]), np.array([-np.inf]))[0] == -math.inf
    assert np.isnan(base.log_stdtr(np.array([5.0]), np.array([np.nan]))[0])


def test_student_pdf_matches_mpmath_at_any_nu():
    # the constant log Gamma((nu+1)/2) - log Gamma(nu/2) was 9.8e-9 off at
    # nu = 1e8 before it came from the asymptotic series
    import mpmath

    with mpmath.workdps(40):
        for nu in (2.0, 200.0, 1e4, 1e6, 1e8):
            for x in (0.5, 3.0):
                n = mpmath.mpf(nu)
                ref = (mpmath.exp(mpmath.loggamma((n + 1) / 2) - mpmath.loggamma(n / 2))
                       / mpmath.sqrt(n * mpmath.pi) * (1 + mpmath.mpf(x) ** 2 / n) ** (-(n + 1) / 2))
                got = base.student_base(nu).pdf(x)
                assert abs(got - ref) <= 1e-14 * ref, (nu, x)


def test_student_log_pdf_is_finite_where_z_squared_overflows():
    t = base.student_base(0.5)
    with np.errstate(over="ignore"):
        got = t.log_pdf(np.array([1e200, -1e300, np.inf]))
    assert got[2] == -math.inf
    got = got[:2]
    ref = [t.log_pdf(1e100) - 1.5 * math.log(1e100), t.log_pdf(1e150) - 1.5 * math.log(1e150)]
    assert got == pytest.approx(ref, rel=1e-14)


def test_student_cdf_is_silent_where_z_squared_overflows():
    # beyond |z| = 1.3e154, z * z overflows to inf and the tail mass is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert base.student_base(3.0).cdf(1e300) == 1.0
        assert base.student_base(3.0).cdf(-1e300) == 0.0
        got = base.student_base(3.0).cdf(np.array([-1e300, -2e154, 1e154, 1e155]))
    assert got.tolist() == [0.0, 0.0, 1.0, 1.0]
