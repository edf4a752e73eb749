"""Acceptance gate: one test per shipped guarantee.

Each test covers one numbered deliverable, enforces its tolerance and wall
budget, and prints a single `criterion N PASS` line (visible with -s or in
captured output).  Run the whole gate with

    pytest tests/test_acceptance.py -v
"""

import importlib.util
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, trapezoid
from scipy.stats import kstest

from flexdist.base import (
    LocationScale,
    logistic_base,
    make_rng,
    normal_base,
    student_base,
)
from flexdist.cli import figure_curves
from flexdist.infer import (
    FitConfig,
    distribution_for,
    fit_gh_quantile,
    fit_mle,
    fit_mle_penalized_skew_normal,
    model_select,
    sfa_composite_error_demo,
)
from flexdist.twopiece import (
    IsfScaling,
    EpsilonScaling,
    ScaleTransformed,
    TwoPieceParams,
    arctan_tilt_transform,
    half_slope_transform,
    side_masses,
)
from tests import subprocess_env

REPO = Path(__file__).resolve().parents[1]
GRID = np.linspace(-10.0, 10.0, 2001)


def full_mass(pdf):
    lo, _ = quad(pdf, -np.inf, 0.0, limit=200)
    hi, _ = quad(pdf, 0.0, np.inf, limit=200)
    return lo + hi


def normalization_catalog():
    """46 parameter combinations spanning every family."""
    combos = []
    for d in (0, 1, 2, 5):
        combos.append(("skew_normal", {"mu": 0, "sigma": 1, "delta": d}))
    for nu in (2, 5):
        for d in (0, 2):
            combos.append(("skew_t", {"mu": 0, "sigma": 1, "nu": nu, "delta": d}))
    for d, e in ((0, 1), (-0.5, 0.5), (-1, 0.5), (-1.5, 0.5), (-1, 1), (-1.5, 1.5)):
        combos.append(("sas_normal", {"mu": 0, "sigma": 1, "delta": d, "eta": e}))
    for g, h in ((0.5, 0.2), (0, 0.3), (-0.5, 0)):
        combos.append(("gh_normal", {"mu": 0, "sigma": 1, "g": g, "h": h}))
    for e in (0, 0.5):
        combos.append(("k_normal", {"mu": 0, "sigma": 1, "eta": e}))
    for fam in ("twopiece_normal", "twopiece_t"):
        nu = {"nu": 2} if fam == "twopiece_t" else {}
        for d in (0.5, 1, 2, 5):
            combos.append((fam, {"mu": 0, "sigma": 1, "delta": d,
                                 "scaling": "isf", **nu}))
        for d in (-0.9, -0.5, 0, 0.5, 0.9):
            combos.append((fam, {"mu": 0, "sigma": 1, "delta": d,
                                 "scaling": "epsilon", **nu}))
    dists = [(f"{f} {p}", distribution_for(f, p)) for f, p in combos]
    loc = LocationScale(0.0, 1.0)
    for b in (normal_base(), logistic_base(), student_base(2.0)):
        dists.append((f"half_slope {b.kind}", ScaleTransformed(b, loc, half_slope_transform())))
    for c in (0.05, -0.2, 0.3):
        for b in (normal_base(), student_base(2.0)):
            dists.append((f"arctan_tilt({c}) {b.kind}",
                          ScaleTransformed(b, loc, arctan_tilt_transform(c))))
    return dists


# identity-parameter members of each figure panel and their symmetric bases
IDENTITY_CURVES = {
    "fig1_left_skew_normal_delta0.csv": normal_base(),
    "fig1_right_skew_t_nu2_delta0.csv": student_base(2.0),
    "fig2_left_sas_normal_delta0_eta1.csv": normal_base(),
    "fig2_right_sas_normal_delta0_eta1.csv": normal_base(),
    "fig3_left_isf_skew_normal_delta1.csv": normal_base(),
    "fig3_right_epsilon_skew_t_nu2_delta0.csv": student_base(2.0),
}


def test_criterion_1_figure_reproduction(tmp_path):
    out = tmp_path / "figs"
    t0 = time.perf_counter()
    r = subprocess.run(
        [sys.executable, "-m", "flexdist", "figures", "--output-dir", str(out)],
        capture_output=True, text=True, env=subprocess_env(),
    )
    elapsed = time.perf_counter() - t0
    assert r.returncode == 0
    files = {p.name for p in out.iterdir()}
    expected = {name for name, _ in figure_curves()}
    assert files == expected
    assert len(files) == 24

    verbatim = amended = 0
    for name, dist in figure_curves():
        lines = (out / name).read_text().strip().splitlines()
        assert lines[0] == "x,density"
        xs, dens = np.array(
            [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        ).T
        assert np.array_equal(xs, GRID)
        trapz = float(trapezoid(dens, xs))
        window = float(dist.cdf(10.0) - dist.cdf(-10.0))
        # the grid integral must reproduce the window mass of the law itself,
        # and the law must integrate to 1 over the whole line
        assert abs(trapz - window) < 1e-3
        assert abs(full_mass(dist.pdf) - 1.0) < 1e-6
        if window > 1.0 - 1e-3:
            # light-tailed curves: total mass sits inside [-10, 10]
            assert abs(trapz - 1.0) < 1e-3
            verbatim += 1
        else:
            amended += 1

    for name, b in IDENTITY_CURVES.items():
        lines = (out / name).read_text().strip().splitlines()
        dens = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
        assert np.max(np.abs(dens - b.pdf(GRID))) < 1e-12

    assert elapsed < 5.0
    print(f"criterion 1 PASS: 24 curves, {verbatim} integrate to 1 within 1e-3, "
          f"{amended} heavy-tailed curves match their own [-10,10] mass within "
          f"1e-3 and integrate to 1 on the line within 1e-6; "
          f"{len(IDENTITY_CURVES)} identity curves match base within 1e-12; "
          f"{elapsed:.2f}s")


def test_criterion_2_normalization_suite():
    t0 = time.perf_counter()
    catalog = normalization_catalog()
    assert len(catalog) >= 40
    worst = 0.0
    for tag, dist in catalog:
        err = abs(full_mass(dist.pdf) - 1.0)
        assert err < 1e-6, f"{tag}: |mass-1|={err:.2e}"
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 2 PASS: {len(catalog)} combinations, worst |mass-1| "
          f"= {worst:.2e} < 1e-6; {elapsed:.2f}s")


SAMPLER_CATALOG = [
    ("normal", {"mu": 0, "sigma": 1}),
    ("logistic", {"mu": 0, "sigma": 1}),
    ("t", {"mu": 0, "sigma": 1, "nu": 2}),
    ("skew_normal", {"mu": 0, "sigma": 1, "delta": 2}),
    ("skew_t", {"mu": 0, "sigma": 1, "nu": 2, "delta": 2}),
    ("sas_normal", {"mu": 0, "sigma": 1, "delta": -1.0, "eta": 0.5}),
    ("gh_normal", {"mu": 0, "sigma": 1, "g": 0.5, "h": 0.2}),
    ("k_normal", {"mu": 0, "sigma": 1, "eta": 0.5}),
    ("twopiece_normal", {"mu": 0, "sigma": 1, "delta": 2, "scaling": "isf"}),
    ("twopiece_t", {"mu": 0, "sigma": 1, "nu": 2, "delta": 0.5,
                    "scaling": "epsilon"}),
]


def test_criterion_3_sampler_density_agreement():
    t0 = time.perf_counter()
    n = 100_000
    worst_p = 1.0
    for i, (family, params) in enumerate(SAMPLER_CATALOG):
        dist = distribution_for(family, params)
        x = dist.sample(n, make_rng(2026 + i))
        res = kstest(x, dist.cdf)
        assert res.pvalue > 0.01, f"{family}: KS p={res.pvalue:.4f}"
        worst_p = min(worst_p, res.pvalue)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 3 PASS: {len(SAMPLER_CATALOG)} samplers x {n} draws, "
          f"worst KS p-value {worst_p:.3f} > 0.01; {elapsed:.2f}s")


SIDE_MASS_SCHEMES = [
    (normal_base(), IsfScaling(0.5)),
    (normal_base(), IsfScaling(1.0)),
    (normal_base(), IsfScaling(2.0)),
    (student_base(2.0), IsfScaling(5.0)),
    (student_base(2.0), EpsilonScaling(-0.9)),
    (logistic_base(), EpsilonScaling(-0.5)),
    (normal_base(), EpsilonScaling(0.5)),
    (student_base(2.0), EpsilonScaling(0.9)),
]


def test_criterion_4_side_mass_law():
    n = 100_000
    worst_q = worst_se = 0.0
    for i, (b, scal) in enumerate(SIDE_MASS_SCHEMES):
        p = TwoPieceParams(b, LocationScale(0.0, 1.0), scal)
        left, right = side_masses(scal)
        quad_left, _ = quad(p.pdf, -np.inf, 0.0, limit=200)
        quad_right, _ = quad(p.pdf, 0.0, np.inf, limit=200)
        assert abs(quad_left - left) < 1e-8
        assert abs(quad_right - right) < 1e-8
        worst_q = max(worst_q, abs(quad_left - left), abs(quad_right - right))

        x = p.sample(n, make_rng(31 + i))
        frac = float(np.mean(x < 0.0))
        se = math.sqrt(left * (1.0 - left) / n)
        assert abs(frac - left) <= 3.0 * se
        worst_se = max(worst_se, abs(frac - left) / se)
    print(f"criterion 4 PASS: {len(SIDE_MASS_SCHEMES)} schemes, worst "
          f"|quadrature-analytic| = {worst_q:.2e} < 1e-8; empirical below-mu "
          f"fraction within {worst_se:.2f} binomial SE (<= 3)")


def test_criterion_5_fit_consistency():
    t0 = time.perf_counter()
    n = 10_000

    x = make_rng(101).normal(2.0, 3.0, size=n)
    f = fit_mle("normal", x)
    assert abs(f.params["mu"] - 2.0) < 0.1 and abs(f.params["sigma"] - 3.0) < 0.1

    sn = distribution_for("skew_normal", {"mu": 0, "sigma": 1, "delta": 5})
    f = fit_mle("skew_normal", sn.sample(n, make_rng(102)))
    assert abs(f.params["mu"]) < 0.1 and abs(f.params["sigma"] - 1.0) < 0.1
    assert abs(f.params["delta"] - 5.0) < 1.0

    tp = distribution_for("twopiece_normal",
                          {"mu": 0, "sigma": 1, "delta": 2, "scaling": "isf"})
    f = fit_mle("twopiece_normal", tp.sample(n, make_rng(103)))
    assert abs(f.params["delta"] - 2.0) < 0.3

    sa = distribution_for("sas_normal",
                          {"mu": 0, "sigma": 1, "delta": -1.0, "eta": 0.5})
    f = fit_mle("sas_normal", sa.sample(n, make_rng(104)))
    assert abs(f.params["mu"]) < 0.15 and abs(f.params["sigma"] - 1.0) < 0.15
    assert abs(f.params["delta"] + 1.0) < 0.15 and abs(f.params["eta"] - 0.5) < 0.15

    gh = distribution_for("gh_normal", {"mu": 0, "sigma": 1, "g": 0.5, "h": 0.2})
    q = fit_gh_quantile(gh.sample(n, make_rng(105)))
    assert abs(q.g - 0.5) < 0.1 and abs(q.h - 0.2) < 0.1

    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    print(f"criterion 5 PASS: normal, skew-normal delta=5, ISF delta=2, "
          f"SAS(-1,0.5), GH(0.5,0.2) all recovered at n={n}; {elapsed:.2f}s")


def _load_lr_size_study():
    spec = importlib.util.spec_from_file_location(
        "lr_size_study", REPO / "scripts" / "lr_size_study.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.slow
def test_criterion_6_lr_test_size():
    study = _load_lr_size_study()
    t0 = time.perf_counter()
    rates = {}
    for alt in ("skew_normal", "twopiece_normal"):
        rates[alt] = study.rejection_rate(
            alt, n=200, reps=500, boot=500, alpha=0.05, seed=0)
    elapsed = time.perf_counter() - t0
    for alt, rate in rates.items():
        assert 0.03 <= rate <= 0.07, f"normal vs {alt}: rate {rate}"
    assert elapsed < 900.0
    print(f"criterion 6 PASS: rejection rates "
          f"{rates['skew_normal']:.3f} (skew_normal), "
          f"{rates['twopiece_normal']:.3f} (twopiece_normal) in [0.03, 0.07] "
          f"at nominal 5%; {elapsed:.0f}s")


@pytest.mark.parametrize("alt", ["skew_normal", "sas_normal", "twopiece_normal"])
def test_lr_size_study_script_runs(alt, capsys):
    # criterion 6's script end to end through its command line, at a size
    # the quick loop affords
    study = _load_lr_size_study()
    assert study.main(["--alt", alt, "--reps", "4", "--boot", "99"]) == 0
    out = capsys.readouterr().out
    assert f"normal vs {alt}: n=200 reps=4 B=99" in out
    assert "rejection rate" in out


def test_criterion_7_sfa_demo():
    demo = sfa_composite_error_demo(10_000, 1.0, 1.0, make_rng(7))
    assert demo.delta_hat < 0.0
    ranked = model_select([demo.normal_fit, demo.skew_normal_fit], "aic")
    assert ranked[0].family == "skew_normal"
    print(f"criterion 7 PASS: sigma_v=sigma_u=1, n=10000 -> delta_hat "
          f"= {demo.delta_hat:.3f} < 0 and skew-normal beats normal by AIC "
          f"({demo.skew_normal_fit.aic:.1f} < {demo.normal_fit.aic:.1f})")


BOUNDARY_SAMPLE = np.array([0.5, 1.1, 1.7, 2.0, 2.4, 3.0])


def test_criterion_8_boundary_pathology():
    plain = fit_mle("skew_normal", BOUNDARY_SAMPLE)
    assert plain.boundary_flag
    pen = fit_mle_penalized_skew_normal(BOUNDARY_SAMPLE)
    assert not pen.boundary_flag
    assert np.isfinite(pen.params["delta"])
    print(f"criterion 8 PASS: all-positive 6-point sample -> plain MLE "
          f"boundary_flag set; penalized delta_hat = {pen.params['delta']:.3f} "
          f"finite and unflagged")


INVARIANT_FILES = [
    "tests/test_skewsym.py",
    "tests/test_transform.py",
    "tests/test_twopiece.py",
    "tests/test_measures.py",
    "tests/test_infer.py",
]


@pytest.mark.slow
def test_criterion_9_invariant_suite():
    r = subprocess.run(
        [sys.executable, "-m", "pytest", *INVARIANT_FILES, "-q",
         "--no-header", "-p", "no:cacheprovider"],
        capture_output=True, text=True, cwd=REPO, env=subprocess_env(),
    )
    tail = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
    assert r.returncode == 0, f"invariant suite failed:\n{r.stdout}\n{r.stderr}"
    assert "failed" not in tail
    print(f"criterion 9 PASS: invariant suite green ({tail})")
