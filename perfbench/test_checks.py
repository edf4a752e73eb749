"""The benchmark's checks pass on real output and fail on corrupted output.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
"""
import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import laws  # noqa: E402
from flexdist import infer  # noqa: E402
from workloads import CATALOGUE  # noqa: E402


@pytest.fixture(scope="module")
def fit_case():
    x = laws.draw("skew_normal", {"mu": 1.0, "sigma": 2.0, "delta": 5.0}, 200,
                  np.random.default_rng(7))
    fits = [infer.fit_mle(f, x) for f in infer.FAMILY_ORDER]
    report = {"n": x.size, "fits": {f.family: {"params": f.params, "loglik": f.loglik,
                                               "aic": f.aic, "bic": f.bic} for f in fits},
              "ranking": [f.family for f in infer.model_select(fits, "aic")]}
    return report, x


def test_fit_report_passes(fit_case):
    report, x = fit_case
    assert checks.check_fit_report(report, x) == []
    assert checks.check_against_scipy_fits(report, checks.scipy_fit_logliks(x)) == []


def test_loglik_moved_by_1e_3_fails(fit_case):
    report, x = copy.deepcopy(fit_case)
    fit = report["fits"]["skew_t"]
    fit["loglik"] += 1e-3
    fit["aic"] -= 2e-3  # keep the criteria consistent with the moved value
    fit["bic"] -= 2e-3
    assert any("rebuilt" in e for e in checks.check_fit_report(report, x))


def test_ranking_out_of_aic_order_fails(fit_case):
    report, x = copy.deepcopy(fit_case)
    r = report["ranking"]
    r[0], r[-1] = r[-1], r[0]
    assert any("not sorted" in e for e in checks.check_fit_report(report, x))


def test_loglik_below_scipy_fit_fails(fit_case):
    report, x = copy.deepcopy(fit_case)
    report["fits"]["logistic"]["loglik"] -= 1e-3
    scipy_ll = checks.scipy_fit_logliks(x)
    assert checks.check_against_scipy_fits(report, scipy_ll)


def _test_report(p_value):
    return {"alt": "skew_normal", "statistic": 12.5, "p_value": p_value,
            "replicates": 99, "failures": 0}


def test_p_value_on_lattice_passes():
    assert checks.check_test_report(_test_report(3 / 100), 12.5, 99) == []


@pytest.mark.parametrize("p", [0.0305, 1e-4, 101 / 100])
def test_p_value_off_lattice_fails(p):
    assert any("(1+k)/(B+1)" in e for e in checks.check_test_report(_test_report(p), 12.5, 99))


def test_statistic_not_from_fits_fails():
    assert checks.check_test_report(_test_report(0.01), 12.5 + 1e-5, 99)


def _cdf_case(family):
    p = dict(CATALOGUE)[family]
    xs = np.sort(laws.draw(family, p, 3000, np.random.default_rng(3)))
    d = infer.distribution_for(family, p)
    return p, xs, d.cdf(xs), d


@pytest.mark.parametrize("family", [f for f, _ in CATALOGUE])
def test_cdf_passes(family):
    p, xs, values, dist = _cdf_case(family)
    assert checks.check_cdf(family, p, xs, values, dist) == []


@pytest.mark.parametrize("family", ["normal", "skew_t", "gh_normal"])
def test_non_monotone_cdf_fails(family):
    p, xs, values, dist = _cdf_case(family)
    values = values.copy()
    i = values.size // 2
    values[i], values[i + 1] = values[i + 1] + 1e-3, values[i]
    assert any("monotone" in e for e in checks.check_cdf(family, p, xs, values, dist))


@pytest.mark.parametrize("family", ["skew_normal", "skew_t", "sas_normal", "twopiece_t"])
def test_density_wrong_by_1e_6_fails(family):
    p = dict(CATALOGUE)[family]
    xs = np.linspace(-10.0, 10.0, 2001)
    dens = infer.distribution_for(family, p).pdf(xs)
    assert checks.check_density(family, p, xs, dens) == []
    dens[1200] *= 1.0 + 1e-6
    assert any("density" in e for e in checks.check_density(family, p, xs, dens))


def test_wrong_sampler_fails():
    p = dict(CATALOGUE)["skew_normal"]
    rng = np.random.default_rng(5)
    flipped = {**p, "delta": -p["delta"]}  # sign-flip sampler bug
    wrong = laws.draw("skew_normal", flipped, 2000, rng)
    redraw = lambda: laws.draw("skew_normal", flipped, 2000, rng)  # noqa: E731
    assert checks.check_sample("skew_normal", p, wrong, redraw)
    right = laws.draw("skew_normal", p, 2000, rng)
    assert checks.check_sample("skew_normal", p, right, lambda: right) == []


def test_shape_table_checks():
    from flexdist import measures

    table = {}
    for fam, p in CATALOGUE:
        d = infer.distribution_for(fam, p)
        table[fam] = {"quantile_kurtosis": measures.quantile_kurtosis(d)}
        if fam not in ("gh_normal", "k_normal"):
            table[fam]["ag_skewness"] = measures.ag_skewness(d)
    assert checks.check_shape_table(CATALOGUE, table) == []
    bad = copy.deepcopy(table)
    bad["sas_normal"]["ag_skewness"] *= -1.0
    bad["t"]["quantile_kurtosis"] += 1e-9
    errs = checks.check_shape_table(CATALOGUE, bad)
    assert any("sas_normal" in e for e in errs) and any("t:" in e for e in errs)
