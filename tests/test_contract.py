"""The distribution contract, as properties over the whole family table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from flexdist import base, infer

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


FAMILY_CASES = [pytest.param(family, _law(family, shape), id=i) for family, shape, i in LAWS]
CASES = [pytest.param(p.values[1], id=p.id) for p in FAMILY_CASES]
# each law at (MU, SIGMA) with its twin at (0, 1)
TWIN_CASES = [pytest.param(_law(family, shape), _law(family, shape, 0.0, 1.0), id=i)
              for family, shape, i in LAWS]
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


@pytest.mark.parametrize("d, twin", TWIN_CASES)
def test_location_scale_step_is_exact(d, twin):
    # every law is its (0, 1) twin through x = mu + sigma z, to the bit
    x = np.linspace(-12.0, 12.0, 49)
    z = (x - MU) / SIGMA
    with np.errstate(all="ignore"):
        assert np.array_equal(d.log_pdf(x), twin.log_pdf(z) - np.log(SIGMA))
    assert np.array_equal(d.cdf(x), twin.cdf(z))
    p = np.linspace(0.0, 1.0, 21)
    assert np.array_equal(d.quantile(p), MU + SIGMA * twin.quantile(p))
    assert d.mode() == MU + SIGMA * twin.mode()


@pytest.mark.parametrize("family, shape", [pytest.param(f, s, id=i) for f, s, i in LAWS])
def test_mode_far_from_zero(family, shape):
    # the peak is searched in z, so an absolute tolerance far below an ulp
    # of mu cannot stall it
    d, twin = _law(family, shape, 1e9, 3.0), _law(family, shape, 0.0, 1.0)
    assert d.mode() == 1e9 + 3.0 * twin.mode()


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
    with np.errstate(all="ignore"):
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
