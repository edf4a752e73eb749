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
CASES = [pytest.param(infer.distribution_for(family, {"mu": 0.3, "sigma": 1.7, **shape}),
                      id=f"{family}-{shape.get('scaling', '')}")
         for family, shapes in SHAPES.items() for shape in shapes]

LEVELS = st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=8)


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
