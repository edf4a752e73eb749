"""The distribution contract, as properties over the whole family table."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from flexdist import base, infer, skewsym, transform, twopiece

# one parameter set per family of infer._FAMILIES; the two-piece families
# once under each scaling
SHAPES = {
    "normal": [{}],
    "logistic": [{}],
    "t": [{"nu": 2.0}],
    "skew_normal": [{"delta": 2.0}],
    "skew_t": [{"nu": 2.0, "delta": 2.0}],
    "sas_normal": [{"delta": -1.0, "eta": 0.5}],
    "gh_normal": [{"g": 0.5, "h": 0.2}],
    "k_normal": [{"eta": 0.5}],
    "twopiece_normal": [{"delta": 2.0, "scaling": "isf"},
                        {"delta": 0.5, "scaling": "epsilon"}],
    "twopiece_t": [{"nu": 2.0, "delta": 2.0, "scaling": "isf"},
                   {"nu": 2.0, "delta": -0.5, "scaling": "epsilon"}],
}
LAWS = [(family, shape, f"{family}-{shape.get('scaling', '')}")
        for family, shapes in SHAPES.items() for shape in shapes]
MU, SIGMA = 0.3, 1.7


def _law(family, shape, mu=MU, sigma=SIGMA):
    return infer.distribution_for(family, {"mu": mu, "sigma": sigma, **shape})


def _skew_symmetric_laws(mu=MU, sigma=SIGMA):
    """The laws no family fits: skew-symmetric laws over a skewing cdf G,
    and transformations of scale, each the image under H of the
    skew-symmetric law with pi = H'."""
    loc = base.LocationScale(mu, sigma)
    return {
        "skew_symmetric-logistic-normal": skewsym.SkewSymmetric(
            base.logistic_base(), loc, 2.0, base.normal_base()),
        "skew_symmetric-t2-t3": skewsym.SkewSymmetric(
            base.student_base(2.0), loc, -1.5, base.student_base(3.0)),
        "scale_transformed-normal-arctan": twopiece.ScaleTransformed(
            base.normal_base(), loc, twopiece.arctan_tilt_transform(0.25)),
        "scale_transformed-t2-half": twopiece.ScaleTransformed(
            base.student_base(2.0), loc, twopiece.half_slope_transform()),
    }


FAMILY_CASES = [pytest.param(family, _law(family, shape), id=i) for family, shape, i in LAWS]
# the symmetric members, where a skewing or tail term at z = +-inf is 0 * inf
# or inf - inf: skew_normal, skew_t, sas_normal (eta = 1) and SkewSymmetric
# at delta = 0, and k_normal at eta = 0
SYMMETRIC_CASES = [
    pytest.param(_law(family, shape), id=f"{family}-symmetric") for family, shape in (
        ("skew_normal", {"delta": 0.0}), ("skew_t", {"nu": 2.0, "delta": 0.0}),
        ("sas_normal", {"delta": 0.0, "eta": 1.0}), ("k_normal", {"eta": 0.0}))] + [
    pytest.param(skewsym.SkewSymmetric(d.base, d.loc, 0.0, d.skew), id=f"{i}-symmetric")
    for i, d in _skew_symmetric_laws().items() if isinstance(d, skewsym.SkewSymmetric)]
SKEW_SYMMETRIC_CASES = [pytest.param(d, id=i) for i, d in _skew_symmetric_laws().items()]
CASES = [pytest.param(p.values[1], id=p.id) for p in FAMILY_CASES] + SKEW_SYMMETRIC_CASES
# each law at (MU, SIGMA) with its twin at (0, 1)
TWIN_CASES = [pytest.param(_law(family, shape), _law(family, shape, 0.0, 1.0), id=i)
              for family, shape, i in LAWS] + [
    pytest.param(d, twin, id=i) for (i, d), twin
    in zip(_skew_symmetric_laws().items(), _skew_symmetric_laws(0.0, 1.0).values())]
# every family the likelihood fits, under each scaling it takes
MLE_CASES = [(family, scaling) for family in infer.FAMILY_ORDER if infer._FAMILIES[family].logf
             for scaling in (("isf", "epsilon") if infer._FAMILIES[family].scaled else ("isf",))]
# the largest |x| at which the normal-tailed families' log-density is still a
# float at these shapes: beyond it the exact value lies below -1.8e308
FINITE_TO = {"normal": 1e150, "skew_normal": 1e150, "twopiece_normal": 1e150}

LEVELS = st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=8)
POINTS = st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=8)


def test_every_family_is_covered():
    assert set(SHAPES) == set(infer._FAMILIES)
    for family, spec in infer._FAMILIES.items():
        assert len(SHAPES[family]) == (2 if spec.scaled else 1)


@pytest.mark.parametrize("d", CASES)
def test_float_in_float_out_and_sample_sizes(d):
    for method, arg in (("log_pdf", 0.4), ("pdf", 0.4), ("cdf", 0.4), ("quantile", 0.3)):
        out = getattr(d, method)(arg)
        assert isinstance(out, float), method
        assert out == getattr(d, method)(np.array([arg]))[0], method
    assert d.sample(0, base.make_rng(1)).shape == (0,)
    with pytest.raises(ValueError):
        d.sample(-1, base.make_rng(1))


# the transformation maps, each at several parameters
MAPS = [transform.SasTransform(0.0, 1.0), transform.SasTransform(-1.0, 0.5),
        transform.SasTransform(0.8, 2.0), transform.GhTransform(0.5, 0.2),
        transform.GhTransform(0.0, 0.3), transform.GhTransform(-1.0, 0.0),
        transform.KTransform(0.0), transform.KTransform(0.5), transform.KTransform(2.0)]


@pytest.mark.parametrize("method", ["forward", "inverse", "log_jacobian"])
@pytest.mark.parametrize("tr", MAPS, ids=repr)
def test_maps_give_a_float_the_bits_of_a_one_element_array(tr, method):
    fn = getattr(tr, method)
    for x in (-40.0, -1.0, -0.25, 0.0, 0.3, 2.0, 7.5, 1e30):
        out, one = fn(x), fn(np.array([x]))
        assert isinstance(out, float) and one.shape == (1,), (method, x)
        assert np.float64(out).tobytes() == one[0].tobytes(), (method, x)


@pytest.mark.parametrize("d, twin", TWIN_CASES)
def test_location_scale_step_is_exact(d, twin):
    # every law is its (0, 1) twin through x = mu + sigma z, to the bit
    x = np.linspace(-12.0, 12.0, 49)
    z = (x - MU) / SIGMA
    assert np.array_equal(d.log_pdf(x), twin.log_pdf(z) - np.log(SIGMA))
    assert np.array_equal(d.cdf(x), twin.cdf(z))
    p = np.linspace(0.0, 1.0, 21)
    assert np.array_equal(d.quantile(p), MU + SIGMA * twin.quantile(p))
    assert d.mode() == MU + SIGMA * twin.mode()


@pytest.mark.parametrize("d", CASES + SYMMETRIC_CASES)
def test_non_finite_points_give_the_limits(d):
    # the limits of a density that vanishes at +-inf, and NaN at NaN, through
    # the array and the float calls, with no RuntimeWarning on the way
    x = (-np.inf, np.nan, np.inf)
    for method, want in (("log_pdf", [-np.inf, np.nan, -np.inf]), ("pdf", [0.0, np.nan, 0.0]),
                         ("cdf", [0.0, np.nan, 1.0])):
        fn = getattr(d, method)
        assert np.array_equal(fn(np.array(x)), want, equal_nan=True), method
        assert np.array_equal([fn(v) for v in x], want, equal_nan=True), method


@pytest.mark.parametrize("family, shape", [pytest.param(f, s, id=i) for f, s, i in LAWS])
def test_mode_far_from_zero(family, shape):
    # the peak is searched in z, so an absolute tolerance far below an ulp
    # of mu cannot stall it
    d, twin = _law(family, shape, 1e9, 3.0), _law(family, shape, 0.0, 1.0)
    assert d.mode() == 1e9 + 3.0 * twin.mode()


# the families whose mode is searched, each with the box its shapes are
# drawn from: the fit's box for sas_normal; the transformation laws search
# y = H(z), the skew laws z
MODE_BOXES = {
    "skew_normal": {"delta": st.floats(-200.0, 200.0)},
    "skew_t": {"nu": st.floats(0.5, 200.0), "delta": st.floats(-200.0, 200.0)},
    "sas_normal": {"delta": st.floats(-50.0, 50.0),
                   "eta": st.floats(-3.0, 3.0).map(lambda t: 10.0 ** t)},
    "gh_normal": {"g": st.floats(-3.0, 3.0), "h": st.floats(0.0, 1.0)},
    "k_normal": {"eta": st.floats(0.0, 10.0)},
}
_ASINH_BIG = math.asinh(np.finfo(float).max)


@pytest.mark.parametrize("family", sorted(MODE_BOXES))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_mode_is_the_root_of_the_score(family, data):
    shape = {name: data.draw(box, label=name) for name, box in MODE_BOXES[family].items()}
    d = _law(family, shape, 0.0, 1.0)
    m = d.mode()
    u = math.asinh(d.tr.forward(m) if isinstance(d, transform.TransformParams) else m)
    step = 1e-6 * max(1.0, abs(u))
    below, above = (float(d._score(np.array([math.sinh(u + s)]))[0]) for s in (-step, step))
    if abs(m) == np.finfo(float).max:
        # a peak beyond the largest float is held at it: the density still
        # rises toward it
        assert min(below, above) * np.sign(m) > 0.0
    else:
        # the score, in the coordinate the search ran in, changes sign
        assert below > 0.0 > above
    # no point of a dense grid over three units of asinh z either side, held
    # within the floats, has a larger log-density, beyond the rounding of
    # its terms
    um = math.asinh(m)
    grid = np.sinh(np.linspace(max(um - 3.0, -_ASINH_BIG), min(um + 3.0, _ASINH_BIG), 6001))
    best = np.max(d.log_pdf(grid))
    assert d.log_pdf(m) >= best - 8.0 * np.finfo(float).eps * max(1.0, abs(best))


@pytest.mark.parametrize("family, shape",
                         [pytest.param(f, s, id=i) for f, s, i in LAWS if f in MODE_BOXES])
def test_mode_takes_few_kernel_calls(family, shape, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return base.z_score(*args, **kwargs)

    def solve(*args):
        raise AssertionError("the mode search solved H")

    for module in (skewsym, transform):
        monkeypatch.setattr(module, "z_score", counting)
    monkeypatch.setattr(transform, "solve_increasing", solve)
    _law(family, shape).mode()
    assert 0 < len(calls) <= 16


@pytest.mark.parametrize("d", CASES)
@given(levels=LEVELS)
@settings(max_examples=40, deadline=None)
def test_quantile_contract(d, levels):
    p = np.array(levels)
    x = d.quantile(p)
    # an array call gives each level the bits of its scalar call
    assert np.array_equal(x, [d.quantile(float(q)) for q in p])
    # cdf(quantile(p)) returns p, through the scalar and the array cdf
    assert np.max(np.abs(d.cdf(x) - p)) <= 1e-10
    assert max(abs(d.cdf(float(xq)) - q) for xq, q in zip(x, p)) <= 1e-10
    # non-decreasing in p, for levels apart by more than the cdf's rounding
    grid = np.unique(np.round(p, 12))
    assert np.all(np.diff(d.quantile(grid)) >= 0.0)


@pytest.mark.parametrize("d", CASES)
@given(points=POINTS)
@settings(max_examples=40, deadline=None)
def test_cdf_contract(d, points):
    x = np.array(points)
    # an array call gives each point the bits of its scalar call
    assert np.array_equal(d.cdf(x), [d.cdf(float(v)) for v in x])
    # non-decreasing on sorted points, for points apart by more than the
    # cdf's rounding
    grid = np.unique(np.round(x, 6))
    assert np.all(np.diff(d.cdf(grid)) >= 0.0)


# a skew-symmetric law over G = Phi and the half-slope transformation of
# scale on a t base, at any nu down to 1/4: the smaller tail of each falls
# as slowly as |x|^-nu, and its quadrature still resolves it
T_BASED_LAWS = {
    "skew_symmetric-t-normal": lambda f, loc: skewsym.SkewSymmetric(
        f, loc, 2.0, base.normal_base()),
    "scale_transformed-t-half": lambda f, loc: twopiece.ScaleTransformed(
        f, loc, twopiece.half_slope_transform()),
}


@pytest.mark.parametrize("name", sorted(T_BASED_LAWS))
@given(nu=st.floats(0.25, 200.0), points=POINTS,
       far=st.lists(st.floats(-1e150, 1e150), max_size=4), levels=LEVELS)
@settings(max_examples=40, deadline=None)
def test_cdf_and_quantile_contract_on_t_bases(name, nu, points, far, levels):
    d = T_BASED_LAWS[name](base.student_base(nu), base.LocationScale(MU, SIGMA))
    x = np.array(points + far)
    assert np.array_equal(d.cdf(x), [d.cdf(float(v)) for v in x])
    assert np.all(np.diff(d.cdf(np.unique(np.round(x, 6)))) >= 0.0)
    p = np.array(levels)
    q = d.quantile(p)
    assert np.array_equal(q, [d.quantile(float(v)) for v in p])
    assert np.max(np.abs(d.cdf(q) - p)) <= 1e-10


@pytest.mark.parametrize("family, scaling", MLE_CASES)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_one_density(family, scaling, data):
    # a fit's kernel sums the log-density its distribution evaluates:
    # n log sigma - sum logf(z) = -sum log_pdf(x)
    spec, cfg = infer._FAMILIES[family], infer.FitConfig(scaling=scaling)
    x = np.array(data.draw(st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=30)))
    t = np.array([data.draw(st.floats(-3.0, 3.0)) for _ in range(spec.n_free)])
    val = spec.nll(t[None, :], x[None, :], cfg)[0][0]
    params = spec.decode(t, cfg)
    if spec.scaled:
        params["scaling"] = scaling
    log_pdf = infer.distribution_for(family, params).log_pdf(x)
    assert val == pytest.approx(-np.sum(log_pdf), rel=0.0,
                                abs=1e-12 * np.sum(np.abs(log_pdf)))


@pytest.mark.parametrize("family, d", FAMILY_CASES)
@given(e=st.floats(-300.0, 300.0), sign=st.sampled_from((-1.0, 1.0)))
@settings(max_examples=40, deadline=None)
def test_log_pdf_is_finite_where_the_density_is_positive(family, d, e, sign):
    x = sign * 10.0 ** e
    out = d.log_pdf(np.array([x, -x]))
    assert np.array_equal(out, [d.log_pdf(x), d.log_pdf(-x)])
    if abs(x) <= FINITE_TO.get(family, 1e300):
        assert np.isfinite(out).all()
    else:
        assert not np.isnan(out).any() and (out < np.inf).all()


# the laws sampled from the t's representation Z / sqrt(V / nu), one fixed
# seed each: the t, the skew-t (a skew-normal over sqrt(V / nu)) and the
# two-piece t (its half-t magnitudes)
SAMPLER_NUS = (1.0, 2.5, 5.0, 30.0)
REPRESENTATION_LAWS = [
    *(("t", {"nu": nu}) for nu in SAMPLER_NUS),
    *(("skew_t", {"nu": nu, "delta": delta}) for nu in SAMPLER_NUS for delta in (-3.0, 0.0, 2.0)),
    *(("twopiece_t", {"nu": nu, "delta": delta, "scaling": scaling}) for nu in SAMPLER_NUS
      for delta, scaling in ((0.5, "isf"), (3.0, "isf"), (-0.5, "epsilon"), (0.9, "epsilon"))),
]
KS_N = 20_000


def _ks_draws(i, family, shape):
    d = infer.distribution_for(family, {"mu": 0.3, "sigma": 1.7, **shape})
    return d, d.sample(KS_N, base.make_rng(4100 + i))


@pytest.mark.parametrize("i, family, shape", [
    pytest.param(i, family, shape, id=f"{family}-" + "-".join(map(str, shape.values())))
    for i, (family, shape) in enumerate(REPRESENTATION_LAWS)])
def test_sampler_ks_against_own_cdf(i, family, shape):
    d, x = _ks_draws(i, family, shape)
    assert stats.kstest(x, d.cdf).pvalue > 1e-4


@pytest.mark.parametrize("i, d", [pytest.param(i, p.values[0], id=p.id)
                                  for i, p in enumerate(SKEW_SYMMETRIC_CASES)])
def test_sign_flip_sampler_ks_against_own_cdf(i, d):
    x = d.sample(KS_N, base.make_rng(4200 + i))
    assert stats.kstest(x, d.cdf).pvalue > 1e-4


@pytest.mark.parametrize("nu", SAMPLER_NUS)
def test_skew_t_sampler_at_zero_delta_is_the_t(nu):
    i = REPRESENTATION_LAWS.index(("skew_t", {"nu": nu, "delta": 0.0}))
    _, x = _ks_draws(i, "skew_t", {"nu": nu, "delta": 0.0})
    assert stats.kstest(x, stats.t(nu, loc=0.3, scale=1.7).cdf).pvalue > 1e-4


@pytest.mark.parametrize("family", ["t", "skew_t"])
@given(nu=st.floats(0.2, 200.0), delta=st.sampled_from((0.0, 1e200, -1e200)),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_t_samplers_are_finite_and_seeded(family, nu, delta, seed):
    shape = {"nu": nu, "delta": delta} if family == "skew_t" else {"nu": nu}
    d = infer.distribution_for(family, {"mu": 0.3, "sigma": 1.7, **shape})
    x = d.sample(2000, base.make_rng(seed))
    assert x.shape == (2000,) and np.isfinite(x).all()
    assert np.array_equal(x, d.sample(2000, base.make_rng(seed)))
    assert d.sample(0, base.make_rng(seed)).shape == (0,)
    with pytest.raises(ValueError):
        d.sample(-1, base.make_rng(seed))


# the k-variate laws: each is |Sigma|^(-1/2) g(y) at y = Sigma^(-1/2)(x - mu)
K_DENSITIES = {
    "student_pdf_k": lambda mp, nu, delta: lambda x: base.student_pdf_k(x, mp, nu),
    "skew_t_pdf": lambda mp, nu, delta: lambda x: skewsym.skew_t_pdf(x, mp, nu, delta),
    "skew_symmetric_pdf_k": lambda mp, nu, delta: lambda x: skewsym.skew_symmetric_pdf_k(
        x, mp, nu, delta, base.logistic_base()),
    "transform_pdf_k": lambda mp, nu, delta: lambda x: transform.transform_pdf_k(
        x, mp, nu, [transform.SasTransform(d, 1.5) if j % 2 else transform.GhTransform(d, 0.2)
                    for j, d in enumerate(delta)]),
}


@pytest.mark.parametrize("name", K_DENSITIES)
@given(data=st.data(), k=st.integers(1, 3), nu=st.floats(0.5, 50.0))
@settings(max_examples=30, deadline=None)
def test_k_density_stack_gives_each_point_its_own_bits(name, data, k, nu):
    entries = st.floats(-2.0, 2.0)
    a = np.array(data.draw(st.lists(entries, min_size=k * k, max_size=k * k))).reshape(k, k)
    mp = base.MatrixParams(np.array(data.draw(st.lists(entries, min_size=k, max_size=k))),
                           a @ a.T + 0.1 * np.eye(k))
    delta = np.array(data.draw(st.lists(entries, min_size=k, max_size=k)))
    x = np.array(data.draw(st.lists(st.lists(st.floats(-60.0, 60.0), min_size=k, max_size=k),
                                    min_size=1, max_size=12)))
    f = K_DENSITIES[name](mp, nu, delta)
    alone = [f(point) for point in x]
    assert all(isinstance(v, float) for v in alone)
    stack = f(x)
    assert stack.shape == (len(x),)
    assert np.array_equal(stack, alone)
