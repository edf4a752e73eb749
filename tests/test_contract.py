"""The distribution contract, as properties over the whole family table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexdist import infer

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
FAMILY_CASES = [pytest.param(family, infer.distribution_for(family, {"mu": 0.3, "sigma": 1.7,
                                                                     **shape}),
                             id=f"{family}-{shape.get('scaling', '')}")
                for family, shapes in SHAPES.items() for shape in shapes]
CASES = [pytest.param(p.values[1], id=p.id) for p in FAMILY_CASES]
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
