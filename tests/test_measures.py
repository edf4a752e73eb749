import math
import runpy
from pathlib import Path

import numpy as np
import pytest

from flexdist import base, measures, skewsym, transform, twopiece

# Frozen oracle values, computed once with mpmath at 40 digits.
OCTILE_K_NORMAL = 1.2330951154852177
OCTILE_K_T2 = 1.5167474166239734
SN1_MODE = 0.5060544689891807              # root of x = phi(x)/Phi(x)
SN1_AG = 0.037863621627722395              # 1 - 2 F(mode) by quadrature

NORMAL = base.normal_base()
STD_LOC = base.LocationScale(0.0, 1.0)


def _located(b, mu=0.0, sigma=1.0):
    return base.LocatedBase(b, base.LocationScale(mu, sigma))


def _two_piece(scheme, mu=0.0, sigma=1.0, b=NORMAL):
    return twopiece.TwoPieceParams(b, base.LocationScale(mu, sigma), scheme)


def _sas(delta, eta, mu=0.0, sigma=1.0):
    return transform.TransformParams(NORMAL, base.LocationScale(mu, sigma),
                                     transform.SasTransform(delta, eta))


def test_ag_skewness_zero_for_symmetric():
    candidates = [
        _located(NORMAL),
        _located(base.student_base(2.0), mu=1.0, sigma=2.0),
        skewsym.SkewNormal(0.0, 1.0, 0.0),
        _two_piece(twopiece.IsfScaling(1.0)),
        _sas(0.0, 1.5),
    ]
    for d in candidates:
        assert abs(measures.ag_skewness(d)) < 1e-8, d


def test_ag_skewness_two_piece_closed_form():
    d = _two_piece(twopiece.IsfScaling(2.0))
    assert measures.ag_skewness(d) == pytest.approx(0.6, abs=1e-12)
    # base-free: holds with a heavy-tailed base and shifted location too
    d2 = _two_piece(twopiece.IsfScaling(2.0), mu=3.0, sigma=0.5,
                    b=base.student_base(2.0))
    assert measures.ag_skewness(d2) == pytest.approx(0.6, abs=1e-12)


def test_ag_skewness_skew_normal_oracle():
    d = skewsym.SkewNormal(0.0, 1.0, 1.0)
    assert d.mode() == pytest.approx(SN1_MODE, abs=1e-6)
    val = measures.ag_skewness(d)
    assert val > 0.0
    assert val == pytest.approx(SN1_AG, abs=1e-5)


def test_ag_skewness_sign_anchors():
    # regression anchors: isf delta > 1 and epsilon delta > 0 both skew right
    assert measures.ag_skewness(_two_piece(twopiece.IsfScaling(3.0))) > 0.0
    assert measures.ag_skewness(_two_piece(twopiece.EpsilonScaling(0.5))) \
        == pytest.approx(0.5, abs=1e-12)
    assert measures.ag_skewness(_two_piece(twopiece.IsfScaling(0.5))) < 0.0
    assert measures.ag_skewness(_two_piece(twopiece.EpsilonScaling(-0.5))) \
        < 0.0


def test_ag_skewness_bounded():
    for delta in (0.1, 0.5, 2.0, 10.0, 100.0):
        val = measures.ag_skewness(_two_piece(twopiece.IsfScaling(delta)))
        assert -1.0 < val < 1.0


def test_role_separation_two_piece():
    # AG skewness of the two-piece family depends on delta only, not on nu
    for scheme in (twopiece.IsfScaling(2.0), twopiece.EpsilonScaling(-0.7)):
        vals = [measures.ag_skewness(_two_piece(scheme,
                                                b=base.student_base(nu)))
                for nu in (2.0, 5.0, 20.0)]
        assert max(vals) - min(vals) < 1e-8


def test_quantile_kurtosis_normal_oracle():
    val = measures.quantile_kurtosis(_located(NORMAL))
    assert val == pytest.approx(OCTILE_K_NORMAL, abs=1e-10)


def test_quantile_kurtosis_t2_heavier_than_normal():
    val = measures.quantile_kurtosis(_located(base.student_base(2.0)))
    assert val == pytest.approx(OCTILE_K_T2, abs=1e-9)
    assert val > OCTILE_K_NORMAL


def test_quantile_kurtosis_location_scale_invariant():
    # closed-form quantiles: invariance holds to full precision
    pairs = [
        (_two_piece(twopiece.IsfScaling(2.0)),
         _two_piece(twopiece.IsfScaling(2.0), mu=5.0, sigma=3.0)),
        (_sas(-1.0, 0.5), _sas(-1.0, 0.5, mu=5.0, sigma=3.0)),
        (_located(NORMAL), _located(NORMAL, mu=5.0, sigma=3.0)),
    ]
    for d0, d1 in pairs:
        k0 = measures.quantile_kurtosis(d0)
        k1 = measures.quantile_kurtosis(d1)
        assert k0 == pytest.approx(k1, abs=1e-10)
    # numeric-inversion quantiles carry the cdf-root tolerance instead
    sn0 = measures.quantile_kurtosis(skewsym.SkewNormal(0.0, 1.0, 2.0))
    sn1 = measures.quantile_kurtosis(skewsym.SkewNormal(5.0, 3.0, 2.0))
    assert sn0 == pytest.approx(sn1, abs=1e-8)


def test_quantile_kurtosis_sas_eta_ordering():
    # at delta = 0, smaller eta means heavier tails
    vals = [measures.quantile_kurtosis(_sas(0.0, eta))
            for eta in (1.5, 1.0, 0.5)]
    assert vals[0] < vals[1] < vals[2]


def test_quantile_kurtosis_degenerate_spread():
    class Flat:
        def pdf(self, x):
            return 0.0

        def cdf(self, x):
            return 0.5

        def quantile(self, p):
            return 1.0

        def mode(self):
            return 1.0

    with pytest.raises(ValueError):
        measures.quantile_kurtosis(Flat())


def test_moment_symmetric_first_is_zero():
    for d in (_located(NORMAL), skewsym.SkewNormal(0.0, 1.0, 0.0)):
        assert measures.moment(d, 1) == pytest.approx(0.0, abs=1e-8)


def test_moment_second_standard_normal():
    assert measures.moment(_located(NORMAL), 2) == pytest.approx(1.0,
                                                                 abs=1e-8)


def test_moment_infinite_for_heavy_tails():
    t2 = _located(base.student_base(2.0))
    assert measures.moment(t2, 2) == math.inf
    assert measures.moment(t2, 3) == math.inf
    assert np.isfinite(measures.moment(t2, 1))
    st = skewsym.SkewT(0.0, 1.0, 2.0, 1.0)
    assert measures.moment(st, 2) == math.inf


# E[X^4] of SAS(mu 0.3, sigma 2, delta -1, eta 0.5) on a normal base, by mpmath
SAS_FOURTH_MOMENT = 53_345_168.006844126


def test_large_moments_meet_a_relative_floor():
    # about 5e7 and 4e10: an absolute tol of 1e-8 is below the panels' rounding
    sas = _sas(-1.0, 0.5, mu=0.3, sigma=2.0)
    assert measures.moment(sas, 4) == pytest.approx(SAS_FOURTH_MOMENT, rel=1e-12)
    gh = transform.TransformParams(NORMAL, STD_LOC, transform.GhTransform(0.3, 0.24))
    # Martinez & Iglewicz (1984): sum_i (-1)^i C(4, i) exp(((4 - i) g)^2 / (2 (1 - 4h)))
    # / (g^4 sqrt(1 - 4h))
    g, h = 0.3, 0.24
    closed = math.fsum((-1) ** i * math.comb(4, i) * math.exp(((4 - i) * g) ** 2 / (2.0 * (1.0 - 4 * h)))
                       for i in range(5)) / (g ** 4 * math.sqrt(1.0 - 4 * h))
    assert closed == pytest.approx(40_469_543_763.38399, rel=1e-14)
    assert measures.moment(gh, 4) == pytest.approx(closed, rel=1e-12)


def test_a_moment_that_cancels_to_zero_meets_a_relative_floor():
    # the odd moment of a symmetric law is about 0 while its parts are about
    # sigma^3: the floor scales with the integral of |f|, not with the result
    sigma = 1000.0
    sas = _sas(0.0, 0.5, sigma=sigma)
    assert abs(measures.moment(sas, 3)) <= 1e-12 * sigma ** 3


def test_moment_rejects_bad_order():
    d = _located(NORMAL)
    with pytest.raises(ValueError):
        measures.moment(d, 0)
    with pytest.raises(ValueError):
        measures.moment(d, -2)


def test_moment_skew_normal_matches_closed_form():
    # E X = delta/sqrt(1+delta^2) * sqrt(2/pi) for the standard skew-normal
    delta = 2.0
    d = skewsym.SkewNormal(0.0, 1.0, delta)
    expected = delta / math.sqrt(1.0 + delta * delta) * math.sqrt(2.0 / math.pi)
    assert measures.moment(d, 1) == pytest.approx(expected, abs=1e-8)


# scripts/shape_measures.py's table, as it prints it: AG skewness and octile
# kurtosis at four decimals
SHAPE_TABLE = """\
family            params                                   AG skew  oct kurt
normal            -                                         0.0000    1.2331
t                 nu=5                                      0.0000    1.3269
t                 nu=2                                      0.0000    1.5167
skew_normal       delta=1                                   0.0379    1.2369
skew_normal       delta=5                                   0.4184    1.2068
skew_t            nu=2, delta=2                             0.3312    1.5044
sas_normal        delta=-0.5, eta=0.5                       0.3768    1.7441
sas_normal        delta=-1.0, eta=0.5                       0.6552    1.7441
twopiece_normal   delta=2, scaling=isf                      0.6000    1.1735
twopiece_normal   delta=0.5, scaling=epsilon                0.5000    1.1823
twopiece_t        nu=2, delta=2, scaling=isf                0.6000    1.4368
"""


def test_shape_measures_script_table(capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "shape_measures.py"
    assert runpy.run_path(str(script))["main"]() == 0
    assert capsys.readouterr().out == SHAPE_TABLE


def test_shape_measures_script_exact_rows(capsys):
    # --exact prints each row's mode, AG skewness, octile kurtosis and raw
    # moments of orders 1 to 4 as repr
    script = Path(__file__).resolve().parents[1] / "scripts" / "shape_measures.py"
    assert runpy.run_path(str(script))["main"](["--exact"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    table = [line.split()[-2:] for line in SHAPE_TABLE.splitlines()[1:]]
    assert len(rows) == len(table)
    for (family, tag, mode, ag, kurt, *moments), (ag4, kurt4) in zip(rows, table):
        assert f"{float(ag):.4f}" == ag4 and f"{float(kurt):.4f}" == kurt4
        assert len(moments) == 4
        # inf exactly from the order at which a t-based law's moments diverge
        finite = [math.isfinite(float(m)) for m in moments]
        assert finite == sorted(finite, reverse=True), (family, tag)
    assert rows[0][:2] == ["normal", "-"]
    assert float(rows[0][6]) == pytest.approx(1.0, rel=1e-14)
    assert rows[2][:2] == ["t", "nu=2"] and rows[2][6:] == ["inf"] * 3
    # the skew-normal at delta = 1: its mode and AG skewness to the oracles'
    assert rows[3][:2] == ["skew_normal", "delta=1"]
    assert float(rows[3][2]) == pytest.approx(SN1_MODE, rel=1e-13)
    assert float(rows[3][3]) == pytest.approx(SN1_AG, rel=1e-12)

