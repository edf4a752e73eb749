"""Likelihood fitting, information-criterion ranking, and calibrated tests.

Families are fit by maximum likelihood over an unconstrained
reparameterization (log sigma, bounded-tanh delta, log nu).  Each simplex
family has one negative log-likelihood kernel, which evaluates a batch of
parameter rows against standardized data rows, and one batched Nelder-Mead
simplex drives every kernel: a fit runs all of its start points in one batch,
and a bootstrap test refits all replicates and their starts in one batch.
The start points are structural (moment, quantile and frontier starts) and
deterministic, so fits draw no random numbers.  The normal family has a
closed form, and the two-piece normal family an exact profile-likelihood
path: for fixed mu the optimal scale and asymmetry are closed-form, so the
fit reduces to a one-dimensional search over mu.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.special import gammaln, log_ndtr, ndtri, stdtr

from .base import (
    LOG_SQRT_TWO_PI,
    LocatedBase,
    LocationScale,
    NumericsError,
    golden_section_max,
    logistic_base,
    make_rng,
    normal_base,
    student_base,
)
from .skewsym import SkewNormal, SkewT
from .transform import GhTransform, KTransform, SasTransform, TransformParams
from .twopiece import EpsilonScaling, IsfScaling, TwoPieceParams

__all__ = [
    "FAMILY_ORDER",
    "NESTED_PAIRS",
    "FitConfig",
    "FitResult",
    "TestResult",
    "GhQuantileFit",
    "nelder_mead",
    "fit_mle",
    "fit_mle_penalized_skew_normal",
    "fit_gh_quantile",
    "log_likelihood",
    "distribution_for",
    "model_select",
    "lr_test",
]

FAMILY_ORDER = (
    "normal",
    "logistic",
    "t",
    "skew_normal",
    "skew_t",
    "sas_normal",
    "twopiece_normal",
    "twopiece_t",
)

NESTED_PAIRS = frozenset(
    {
        ("normal", "skew_normal"),
        ("normal", "sas_normal"),
        ("normal", "twopiece_normal"),
        ("t", "skew_t"),
    }
)

# pairs whose alternative gets the fitted null as an extra start; for the
# other normal-null pairs the alternative's own first start already sits at
# the normal MLE after standardization
_EMBEDDED_PAIRS = frozenset({("t", "skew_t"), ("normal", "twopiece_normal")})

_LOG_TWO = math.log(2.0)

# delta is optimized through delta = cap * tanh(slope * t / cap): unbounded in
# t, bounded by the cap, slope `_MAP_SLOPE` at the origin.  The caps act as the
# practical frontier for the boundary_flag rule.
_SKEW_CAP = 200.0
_SAS_CAP = 50.0
_MAP_SLOPE = 10.0
_EPS_CAP = 1.0 - 1e-6
_ISF_LO, _ISF_HI = 1e-4, 1e4
_NU_LO, _NU_HI = 0.5, 200.0
_ETA_LO, _ETA_HI = 1e-3, 1e3
_FRONTIER_TOL = 1e-4

# t-value that puts delta within ~2e-5 of the +-200 cap; used as a dedicated
# restart so a likelihood that increases all the way to the frontier is found
# even when interior starts stall on the ridge.
_CHASE_T = 170.0

# cap on the row x point elements of one kernel evaluation and of one chunk
# of bootstrap replicates, so memory stays bounded at any n and B
_BATCH_ELEMENTS = 1 << 20


def _rows_per_batch(n: int) -> int:
    return max(1, _BATCH_ELEMENTS // n)


# ---------------------------------------------------------------------------
# the simplex


class SimplexResult(NamedTuple):
    x: np.ndarray
    fun: float
    iterations: int
    converged: bool


def nelder_mead(fn, x0, steps, xatol=1e-8, fatol=1e-8, maxiter=400):
    """Minimize fn from x0 with a plain Nelder-Mead simplex.

    steps gives the per-coordinate offsets of the initial simplex.  NaN
    objective values are treated as +inf.  Convergence requires both the
    simplex spread (max-norm) and the value spread to fall below tolerance.
    This is the one-problem case of the batched simplex that fits use.
    """
    x0 = np.asarray(x0, dtype=float)
    steps = np.asarray(steps, dtype=float)
    if steps.size != x0.size:
        raise ValueError(f"got {steps.size} steps for {x0.size} parameters")
    x, fun, iters, conv = _batch_nelder_mead(
        lambda t, rows: np.array([fn(v) for v in t], dtype=float),
        _simplex(x0[None, :], steps),
        xatol,
        fatol,
        maxiter,
    )
    return SimplexResult(x[0], float(fun[0]), int(iters[0]), bool(conv[0]))


def _simplex(points, steps):
    """Initial simplexes (m, d + 1, d): each point, then one step per coordinate."""
    d = points.shape[1]
    offsets = np.vstack((np.zeros(d), np.diag(steps)))
    return points[:, None, :] + offsets


def _batch_nelder_mead(fn, simplex, xatol, fatol, maxiter):
    """Nelder-Mead over a batch of independent problems of equal dimension.

    simplex (m, d + 1, d) holds each problem's initial vertices.  fn(T, rows)
    evaluates parameter rows T (k, d) for problem indices rows; NaN values
    count as +inf.  Converged problems are frozen and drop out of subsequent
    evaluations.  Returns per-problem best point, value, iteration count and
    convergence flag.
    """

    def ev(t, rows):
        f = fn(t, rows)
        return np.where(np.isnan(f), np.inf, f)

    verts = np.array(simplex, dtype=float)
    m, _, d = verts.shape
    all_rows = np.arange(m)
    fv = ev(verts.reshape(-1, d), np.repeat(all_rows, d + 1)).reshape(m, d + 1)

    active = np.ones(m, dtype=bool)
    conv = np.zeros(m, dtype=bool)
    iters = np.zeros(m, dtype=int)
    it = 0
    while it < maxiter and active.any():
        rows = np.where(active)[0]
        va = verts[rows]
        fa = fv[rows]
        order = np.argsort(fa, axis=1, kind="stable")
        va = np.take_along_axis(va, order[:, :, None], axis=1)
        fa = np.take_along_axis(fa, order, axis=1)
        verts[rows] = va
        fv[rows] = fa
        spread_x = np.max(np.abs(va[:, 1:, :] - va[:, :1, :]), axis=(1, 2))
        spread_f = fa[:, -1] - fa[:, 0]
        done = (spread_x <= xatol) & (spread_f <= fatol)
        if done.any():
            conv[rows[done]] = True
            active[rows[done]] = False
            keep = ~done
            rows, va, fa = rows[keep], va[keep], fa[keep]
        if rows.size == 0:
            break

        centroid = va[:, :-1, :].mean(axis=1)
        direction = centroid - va[:, -1, :]
        xr = centroid + direction
        fr = ev(xr, rows)
        new_x = xr
        new_f = fr.copy()

        lt_best = fr < fa[:, 0]
        idx = np.where(lt_best)[0]
        if idx.size:
            xe = centroid[idx] + 2.0 * direction[idx]
            fe = ev(xe, rows[idx])
            take = fe < fr[idx]
            sel = idx[take]
            new_x[sel] = xe[take]
            new_f[sel] = fe[take]
        accept = lt_best | (fr < fa[:, -2])

        idx = np.where(~accept)[0]
        shrink = np.array([], dtype=int)
        if idx.size:
            outside = fr[idx] < fa[idx, -1]
            xc = np.where(
                outside[:, None],
                centroid[idx] + 0.5 * direction[idx],
                centroid[idx] - 0.5 * direction[idx],
            )
            fc = ev(xc, rows[idx])
            ok = np.where(outside, fc <= fr[idx], fc < fa[idx, -1])
            sel = idx[ok]
            new_x[sel] = xc[ok]
            new_f[sel] = fc[ok]
            accept[sel] = True
            shrink = idx[~ok]

        acc = np.where(accept)[0]
        va[acc, -1, :] = new_x[acc]
        fa[acc, -1] = new_f[acc]
        if shrink.size:
            va[shrink, 1:, :] = va[shrink, :1, :] + 0.5 * (
                va[shrink, 1:, :] - va[shrink, :1, :]
            )
            flat = va[shrink, 1:, :].reshape(-1, d)
            fa[shrink, 1:] = ev(flat, np.repeat(rows[shrink], d)).reshape(-1, d)
        verts[rows] = va
        fv[rows] = fa
        iters[rows] += 1
        it += 1

    best = np.argmin(fv, axis=1)
    return verts[all_rows, best, :], fv[all_rows, best], iters, conv


# ---------------------------------------------------------------------------
# parameter maps between the optimizer space and natural parameters; each
# takes a float or an array


def _dec_bounded(t, cap: float):
    return cap * np.tanh(_MAP_SLOPE * t / cap)


def _enc_bounded(delta, cap: float):
    u = np.clip(delta / cap, -1.0 + 1e-15, 1.0 - 1e-15)
    return cap / _MAP_SLOPE * np.arctanh(u)


def _dec_log(t, lo: float, hi: float):
    return np.exp(np.clip(t, math.log(lo), math.log(hi)))


def _enc_log(v, lo: float, hi: float):
    return np.log(np.clip(v, lo, hi))


def _dec_eps(t):
    return _EPS_CAP * np.tanh(t)


def _enc_eps(delta):
    u = np.clip(delta / _EPS_CAP, -1.0 + 1e-12, 1.0 - 1e-12)
    return np.arctanh(u)


def _sigma_of(ls):
    return np.exp(np.clip(ls, -200.0, 200.0))


def _t_const(nu):
    return gammaln(0.5 * (nu + 1.0)) - gammaln(0.5 * nu) - 0.5 * np.log(nu * math.pi)


# ---------------------------------------------------------------------------
# negative log-likelihoods, one kernel per simplex family: parameter rows
# t (k, d) in optimizer coordinates against standardized data rows w (k, n)


def _z(t, w):
    return (w - t[:, :1]) * np.exp(-t[:, 1:2])


def _nll_logistic(t, w, cfg):
    z = np.abs(_z(t, w))
    return w.shape[1] * t[:, 1] + np.sum(z + 2.0 * np.log1p(np.exp(-z)), axis=1)


def _nll_t(t, w, cfg):
    nu = _dec_log(t[:, 2], _NU_LO, _NU_HI)
    z = _z(t, w)
    tail = np.sum(np.log1p(z * z / nu[:, None]), axis=1)
    return w.shape[1] * (t[:, 1] - _t_const(nu)) + 0.5 * (nu + 1.0) * tail


def _nll_skew_normal(t, w, cfg, penalized=False):
    delta = _dec_bounded(t[:, 2], _SKEW_CAP)
    z = _z(t, w)
    val = (
        w.shape[1] * (t[:, 1] + LOG_SQRT_TWO_PI - _LOG_TWO)
        + 0.5 * np.einsum("ij,ij->i", z, z)
        - np.sum(log_ndtr(delta[:, None] * z), axis=1)
    )
    if penalized:
        val += cfg.penalty_c1 * np.log1p(cfg.penalty_c2 * delta * delta)
    return val


def _nll_skew_t(t, w, cfg):
    nu = _dec_log(t[:, 2], _NU_LO, _NU_HI)
    delta = _dec_bounded(t[:, 3], _SKEW_CAP)
    z = _z(t, w)
    q = z * z
    arg = delta[:, None] * z * np.sqrt((nu[:, None] + 1.0) / (q + nu[:, None]))
    tilt = np.sum(np.log(stdtr(nu[:, None] + 1.0, arg)), axis=1)
    tail = np.sum(np.log1p(q / nu[:, None]), axis=1)
    return (
        w.shape[1] * (t[:, 1] - _LOG_TWO - _t_const(nu))
        + 0.5 * (nu + 1.0) * tail
        - tilt
    )


def _nll_sas(t, w, cfg):
    delta = _dec_bounded(t[:, 2], _SAS_CAP)
    eta = _dec_log(t[:, 3], _ETA_LO, _ETA_HI)
    z = _z(t, w)
    u = eta[:, None] * np.arcsinh(z) + delta[:, None]
    y = np.sinh(u)
    au = np.abs(u)
    log_cosh = au + np.log1p(np.exp(-2.0 * au)) - _LOG_TWO
    return (
        w.shape[1] * (t[:, 1] + LOG_SQRT_TWO_PI - np.log(eta))
        + 0.5 * np.einsum("ij,ij->i", y, y)
        - np.sum(log_cosh, axis=1)
        + 0.5 * np.sum(np.log1p(z * z), axis=1)
    )


def _nll_two_piece(t, w, cfg):
    """Two-piece normal (d = 3) or two-piece t (d = 4, nu third)."""
    if cfg.scaling == "epsilon":
        delta = _dec_eps(t[:, -1])
        s_l, s_r, log_a = 1.0 / (1.0 - delta), 1.0 / (1.0 + delta), 0.0
    else:
        delta = _dec_log(t[:, -1], _ISF_LO, _ISF_HI)
        s_l, s_r = delta, 1.0 / delta
        log_a = np.log(2.0 / (delta + 1.0 / delta))
    z = _z(t, w)
    v = np.where(z < 0.0, s_l[:, None], s_r[:, None]) * z
    n = w.shape[1]
    if t.shape[1] == 4:
        nu = _dec_log(t[:, 2], _NU_LO, _NU_HI)
        tail = np.sum(np.log1p(v * v / nu[:, None]), axis=1)
        return n * (t[:, 1] - log_a - _t_const(nu)) + 0.5 * (nu + 1.0) * tail
    return n * (t[:, 1] + LOG_SQRT_TWO_PI - log_a) + 0.5 * np.einsum("ij,ij->i", v, v)


# ---------------------------------------------------------------------------
# structural start points for standardized data rows w (m, n): each entry is
# an (m, d) array of points or an (m, d + 1, d) array of initial simplexes


def _points(m: int, *cols):
    return np.column_stack([np.broadcast_to(np.asarray(c, dtype=float), (m,)) for c in cols])


def _skewness_sign(w):
    return np.where(np.mean(w**3, axis=1) >= 0.0, 1.0, -1.0)


def _skew_normal_moment_start(w):
    """Method-of-moments inversion: mu, log sigma and t of delta per row."""
    g1 = np.mean(w**3, axis=1)
    b = math.sqrt(2.0 / math.pi)
    a1 = np.minimum(np.abs(g1), 0.99)
    c = (2.0 * a1 / (4.0 - math.pi)) ** (1.0 / 3.0)
    mm = c / np.sqrt(1.0 + c * c)
    mb = np.minimum(mm / b, 0.995)
    d0 = np.copysign(mb / np.sqrt(1.0 - mb * mb), g1)
    md = b * d0 / np.sqrt(1.0 + d0 * d0)
    s0 = 1.0 / np.sqrt(np.maximum(1.0 - md * md, 1e-3))
    return -s0 * md, np.log(s0), _enc_bounded(d0, _SKEW_CAP)


def _chase_start(w):
    """mu, log sigma and t of delta at the half-normal limit the ridge runs to."""
    sign = _skewness_sign(w)
    mu_c = np.where(sign > 0.0, w.min(axis=1), w.max(axis=1))
    s_c = np.sqrt(np.mean((w - mu_c[:, None]) ** 2, axis=1))
    return mu_c, np.log(np.maximum(s_c, 1e-12)), sign * _CHASE_T


def _starts_logistic(w, cfg):
    return [_points(w.shape[0], np.median(w, axis=1), math.log(0.551))]


def _starts_t(w, cfg):
    m = w.shape[0]
    med = np.median(w, axis=1)
    return [
        _points(m, med, math.log(0.75), math.log(4.0)),
        _points(m, med, math.log(0.92), math.log(12.0)),
    ]


def _starts_skew_normal(w, cfg):
    """The folded moment/null simplex, the frontier chase, the null point.

    The first run folds the moment-based start and the exact null point into
    one simplex: the moment vertex shortens travel while the null vertex
    pins the best value at or below the normal fit from the outset.
    """
    m = w.shape[0]
    moment = _points(m, *_skew_normal_moment_start(w))
    folded = _simplex(moment, _FAMILIES["skew_normal"].steps)
    # last vertex -> the null point, unless it would degenerate the simplex
    folded[np.max(np.abs(moment), axis=1) > 0.05, -1, :] = 0.0
    return [folded, _points(m, *_chase_start(w)), np.zeros((m, 3))]


def _starts_skew_t(w, cfg):
    m = w.shape[0]
    m0, ls0, td0 = _skew_normal_moment_start(w)
    mu_c, ls_c, td_c = _chase_start(w)
    return [
        _points(m, 0.0, 0.0, math.log(5.0), 0.0),
        _points(m, m0, ls0, math.log(5.0), td0),
        _points(m, mu_c, ls_c, math.log(5.0), td_c),
        _points(m, m0, ls0, math.log(2.0), td0),
    ]


def _starts_sas(w, cfg):
    m = w.shape[0]
    sign = _skewness_sign(w)
    return [
        np.zeros((m, 4)),
        _points(m, 0.0, 0.0, _enc_bounded(-0.7 * sign, _SAS_CAP), 0.0),
        _points(
            m,
            np.median(w, axis=1),
            math.log(0.8),
            _enc_bounded(-0.4 * sign, _SAS_CAP),
            math.log(0.7),
        ),
    ]


def _starts_two_piece(w, cfg, with_nu):
    epsilon = cfg.scaling == "epsilon"
    out = []
    for q in (0.25, 0.5, 0.75):
        mu0 = np.quantile(w, q, axis=1)
        p_left = np.clip(np.mean(w < mu0[:, None], axis=1), 0.05, 0.95)
        if epsilon:
            td = _enc_eps(1.0 - 2.0 * p_left)
        else:
            td = _enc_log(np.sqrt(1.0 / p_left - 1.0), _ISF_LO, _ISF_HI)
        if with_nu:
            out.append(_points(w.shape[0], mu0, 0.0, math.log(5.0), td))
        else:
            out.append(_points(w.shape[0], mu0, 0.0, td))
    return out


# ---------------------------------------------------------------------------
# coordinate decoding/encoding


def _dec_normal(t, cfg):
    return {"mu": float(t[0]), "sigma": float(_sigma_of(t[1]))}


def _dec_t(t, cfg):
    return {
        "mu": float(t[0]),
        "sigma": float(_sigma_of(t[1])),
        "nu": float(_dec_log(t[2], _NU_LO, _NU_HI)),
    }


def _dec_skew_normal(t, cfg):
    return {
        "mu": float(t[0]),
        "sigma": float(_sigma_of(t[1])),
        "delta": float(_dec_bounded(t[2], _SKEW_CAP)),
    }


def _dec_skew_t(t, cfg):
    return {
        "mu": float(t[0]),
        "sigma": float(_sigma_of(t[1])),
        "nu": float(_dec_log(t[2], _NU_LO, _NU_HI)),
        "delta": float(_dec_bounded(t[3], _SKEW_CAP)),
    }


def _dec_sas(t, cfg):
    return {
        "mu": float(t[0]),
        "sigma": float(_sigma_of(t[1])),
        "delta": float(_dec_bounded(t[2], _SAS_CAP)),
        "eta": float(_dec_log(t[3], _ETA_LO, _ETA_HI)),
    }


def _dec_two_piece(t, cfg):
    td = t[-1]
    delta = _dec_eps(td) if cfg.scaling == "epsilon" else _dec_log(td, _ISF_LO, _ISF_HI)
    out = {"mu": float(t[0]), "sigma": float(_sigma_of(t[1])), "delta": float(delta)}
    if len(t) == 4:
        out["nu"] = float(_dec_log(t[2], _NU_LO, _NU_HI))
    return out


def _enc_common(params, cfg, family):
    mu = float(params["mu"])
    ls = math.log(float(params["sigma"]))
    if family == "logistic":
        return np.array([mu, ls])
    if family == "t":
        return np.array([mu, ls, _enc_log(params["nu"], _NU_LO, _NU_HI)])
    if family == "skew_normal":
        return np.array([mu, ls, _enc_bounded(params["delta"], _SKEW_CAP)])
    if family == "skew_t":
        return np.array(
            [
                mu,
                ls,
                _enc_log(params["nu"], _NU_LO, _NU_HI),
                _enc_bounded(params["delta"], _SKEW_CAP),
            ]
        )
    if family == "sas_normal":
        return np.array(
            [
                mu,
                ls,
                _enc_bounded(params["delta"], _SAS_CAP),
                _enc_log(params["eta"], _ETA_LO, _ETA_HI),
            ]
        )
    if family in ("twopiece_normal", "twopiece_t"):
        if cfg.scaling == "epsilon":
            td = _enc_eps(params["delta"])
        else:
            td = _enc_log(params["delta"], _ISF_LO, _ISF_HI)
        if family == "twopiece_t":
            return np.array([mu, ls, _enc_log(params["nu"], _NU_LO, _NU_HI), td])
        return np.array([mu, ls, td])
    raise ValueError(f"cannot encode parameters for family {family!r}")


# ---------------------------------------------------------------------------
# boundary rules (on the final natural parameters)


def _boundary_none(params) -> bool:
    return False


def _boundary_skew(params) -> bool:
    return _SKEW_CAP - abs(params["delta"]) <= _FRONTIER_TOL


def _boundary_sas(params) -> bool:
    return _SAS_CAP - abs(params["delta"]) <= _FRONTIER_TOL


def _boundary_two_piece(params) -> bool:
    delta = params["delta"]
    if params.get("scaling", "isf") == "epsilon":
        return 1.0 - abs(delta) <= _FRONTIER_TOL
    # on the log scale, where exp(log(cap)) may land an ulp inside the cap
    return abs(math.log(delta)) >= math.log(_ISF_HI) - _FRONTIER_TOL


@dataclass(frozen=True)
class _Family:
    name: str
    n_free: int
    nll: Optional[Callable]
    decode: Callable
    starts: Optional[Callable]
    steps: tuple
    boundary: Callable


_FAMILIES = {
    "normal": _Family("normal", 2, None, _dec_normal, None, (), _boundary_none),
    "logistic": _Family(
        "logistic",
        2,
        _nll_logistic,
        _dec_normal,
        _starts_logistic,
        (0.25, 0.25),
        _boundary_none,
    ),
    "t": _Family(
        "t",
        3,
        _nll_t,
        _dec_t,
        _starts_t,
        (0.25, 0.25, 0.5),
        _boundary_none,
    ),
    "skew_normal": _Family(
        "skew_normal",
        3,
        _nll_skew_normal,
        _dec_skew_normal,
        _starts_skew_normal,
        (0.25, 0.25, 0.6),
        _boundary_skew,
    ),
    "skew_t": _Family(
        "skew_t",
        4,
        _nll_skew_t,
        _dec_skew_t,
        _starts_skew_t,
        (0.25, 0.25, 0.5, 0.6),
        _boundary_skew,
    ),
    "sas_normal": _Family(
        "sas_normal",
        4,
        _nll_sas,
        _dec_sas,
        _starts_sas,
        (0.25, 0.25, 0.5, 0.3),
        _boundary_sas,
    ),
    "twopiece_normal": _Family(
        "twopiece_normal",
        3,
        _nll_two_piece,
        _dec_two_piece,
        partial(_starts_two_piece, with_nu=False),
        (0.25, 0.25, 0.5),
        _boundary_two_piece,
    ),
    "twopiece_t": _Family(
        "twopiece_t",
        4,
        _nll_two_piece,
        _dec_two_piece,
        partial(_starts_two_piece, with_nu=True),
        (0.25, 0.25, 0.5, 0.5),
        _boundary_two_piece,
    ),
}

# the penalty c1*ln(1 + c2*delta^2) is a term of the skew-normal kernel
_PENALIZED_SKEW_NORMAL = replace(
    _FAMILIES["skew_normal"], nll=partial(_nll_skew_normal, penalized=True)
)


# ---------------------------------------------------------------------------
# public records


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings shared by fit_mle and lr_test.

    restarts caps the number of simplex runs taken from the front of the
    family's structural start list; there are no random starts, so a fit is
    a deterministic function of its data and config.  scaling picks the
    two-piece parameterization.  two_piece_profile switches the two-piece
    normal fit to the exact profile-likelihood path.
    """

    restarts: int = 5
    xatol: float = 1e-8
    fatol: float = 1e-8
    maxiter: Optional[int] = None
    scaling: str = "isf"
    penalty_c1: float = 1.0
    penalty_c2: float = 1.0 / 3.0
    two_piece_profile: bool = True

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.xatol <= 0.0 or self.fatol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.scaling not in ("isf", "epsilon"):
            raise ValueError(f"unknown scaling {self.scaling!r}")
        if self.penalty_c1 < 0.0 or self.penalty_c2 <= 0.0:
            raise ValueError("penalty constants must be positive")


@dataclass(frozen=True)
class FitResult:
    family: str
    params: dict
    loglik: float
    aic: float
    bic: float
    n: int
    converged: bool
    iterations: int
    boundary_flag: bool


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    replicates: int
    method: str = "parametric_bootstrap"
    failures: int = 0


@dataclass(frozen=True)
class GhQuantileFit:
    mu: float
    sigma: float
    g: float
    h: float
    n: int


# ---------------------------------------------------------------------------
# distribution construction and likelihood


def distribution_for(family: str, params: dict):
    """Build the distribution object named by family from a parameter dict."""
    mu = float(params["mu"])
    sigma = float(params["sigma"])
    loc = LocationScale(mu, sigma)
    if family == "normal":
        return LocatedBase(normal_base(), loc)
    if family == "logistic":
        return LocatedBase(logistic_base(), loc)
    if family == "t":
        return LocatedBase(student_base(float(params["nu"])), loc)
    if family == "skew_normal":
        return SkewNormal(mu, sigma, float(params["delta"]))
    if family == "skew_t":
        return SkewT(mu, sigma, float(params["nu"]), float(params["delta"]))
    if family == "sas_normal":
        return TransformParams(
            normal_base(), loc, SasTransform(float(params["delta"]), float(params["eta"]))
        )
    if family == "gh_normal":
        return TransformParams(
            normal_base(), loc, GhTransform(float(params["g"]), float(params["h"]))
        )
    if family == "k_normal":
        return TransformParams(normal_base(), loc, KTransform(float(params["eta"])))
    if family in ("twopiece_normal", "twopiece_t"):
        delta = float(params["delta"])
        if params.get("scaling", "isf") == "epsilon":
            scheme = EpsilonScaling(delta)
        else:
            scheme = IsfScaling(delta)
        if family == "twopiece_t":
            base = student_base(float(params["nu"]))
        else:
            base = normal_base()
        return TwoPieceParams(base, loc, scheme)
    raise ValueError(f"unknown family {family!r}")


def _as_data(data) -> np.ndarray:
    x = np.asarray(data, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("empty data")
    if not np.isfinite(x).all():
        raise ValueError("data must be finite (no NaN or infinity)")
    return x


def log_likelihood(family: str, params: dict, data) -> float:
    """Sum of log densities; -inf when any point has zero density."""
    x = _as_data(data)
    dist = distribution_for(family, params)
    return float(np.sum(dist.log_pdf(x)))


# ---------------------------------------------------------------------------
# fitting


def _standardize(x):
    """Standardize each data row of x (m, n): w = (x * 2**-e - m0) / s0.

    The exact power-of-two prescaling puts max |x| in [0.5, 1), so the sums
    and squares behind m0 and s0 neither overflow nor underflow at any
    floating-point scale of the data.  Returns (w, e, m0, s0) per row; a row
    with s0 == 0 gets w = 0.
    """
    e = np.frexp(np.max(np.abs(x), axis=1))[1]
    xs = np.ldexp(x, -e[:, None])
    m0 = xs.mean(axis=1)
    s0 = xs.std(axis=1)
    w = (xs - m0[:, None]) / np.where(s0 > 0.0, s0, 1.0)[:, None]
    return w, e, m0, s0


def _to_w_units(params: dict, e, m0, s0) -> dict:
    out = dict(params)
    out["mu"] = (float(np.ldexp(params["mu"], -e)) - m0) / s0
    out["sigma"] = float(np.ldexp(params["sigma"], -e)) / s0
    return out


def _from_w_units(params: dict, e, m0, s0) -> dict:
    out = dict(params)
    out["mu"] = float(np.ldexp(m0 + s0 * params["mu"], e))
    out["sigma"] = float(np.ldexp(s0 * params["sigma"], e))
    return out


def _two_piece_profile(w: np.ndarray, cfg: FitConfig):
    """Exact two-piece normal MLE of one data row via the profile likelihood in mu.

    For fixed mu, with L and R the left/right sums of squared deviations,
    the inverse-scale-factor optimum is delta = (R/L)^(1/6) and
    sigma^2 = (delta^2 L + R / delta^2) / n, both closed form.  The profile
    is maximized over a candidate grid (all data points, midpoints, and the
    sample mean) and refined with golden-section search.  Returns the optimum
    in optimizer coordinates, its negative log-likelihood and the number of
    profile evaluations.
    """
    xs = np.sort(w)
    n = xs.size
    s1 = np.concatenate(([0.0], np.cumsum(xs)))
    s2 = np.concatenate(([0.0], np.cumsum(xs * xs)))
    xs_list = xs.tolist()
    s1_list = s1.tolist()
    s2_list = s2.tolist()
    s1n, s2n = s1_list[n], s2_list[n]
    evals = [0]
    sixth = 1.0 / 6.0
    const = 0.5 * n + n * LOG_SQRT_TWO_PI

    def at(mu: float):
        evals[0] += 1
        k = bisect_left(xs_list, mu)
        left = max(s2_list[k] - 2.0 * mu * s1_list[k] + k * mu * mu, 0.0)
        right = max((s2n - s2_list[k]) - 2.0 * mu * (s1n - s1_list[k]) + (n - k) * mu * mu, 0.0)
        if left <= 0.0:
            delta = _ISF_HI
        elif right <= 0.0:
            delta = _ISF_LO
        else:
            delta = min(max((right / left) ** sixth, _ISF_LO), _ISF_HI)
        var = (delta * delta * left + right / (delta * delta)) / n
        if var <= 0.0:
            return -math.inf, delta, 0.0
        ll = n * math.log(2.0 / (delta + 1.0 / delta)) - 0.5 * n * math.log(var) - const
        return ll, delta, math.sqrt(var)

    def profile_grid(mu):
        k = np.searchsorted(xs, mu, side="left")
        left = np.maximum(s2[k] - 2.0 * mu * s1[k] + k * mu * mu, 0.0)
        right = np.maximum(
            (s2[n] - s2[k]) - 2.0 * mu * (s1[n] - s1[k]) + (n - k) * mu * mu, 0.0
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = np.clip((right / left) ** sixth, _ISF_LO, _ISF_HI)
            delta = np.where(left <= 0.0, _ISF_HI, delta)
            delta = np.where(right <= 0.0, _ISF_LO, delta)
            var = (delta**2 * left + right / delta**2) / n
            ll = np.where(
                var > 0.0,
                n * np.log(2.0 / (delta + 1.0 / delta)) - 0.5 * n * np.log(var) - const,
                -np.inf,
            )
        evals[0] += mu.size
        return ll

    mids = 0.5 * (xs[:-1] + xs[1:])
    cands = np.unique(np.concatenate((xs, mids, [np.mean(xs)])))
    ll_c = profile_grid(cands)
    i = int(np.argmax(ll_c))
    lo = cands[max(i - 1, 0)]
    hi = cands[min(i + 1, cands.size - 1)]
    span = max(float(xs[-1] - xs[0]), 1e-12)
    mu_hat = golden_section_max(
        lambda m: at(m)[0], float(lo), float(hi), tol=1e-7 * span
    )
    if at(mu_hat)[0] < ll_c[i]:
        mu_hat = float(cands[i])
    ll_best, delta_isf, sigma_isf = at(mu_hat)

    if cfg.scaling == "epsilon":
        d2 = delta_isf * delta_isf
        delta = (d2 - 1.0) / (d2 + 1.0)
        delta = min(max(delta, -_EPS_CAP), _EPS_CAP)
        sigma = sigma_isf / math.sqrt(1.0 - delta * delta)
        td = _enc_eps(delta)
    else:
        sigma = sigma_isf
        td = _enc_log(delta_isf, _ISF_LO, _ISF_HI)
    return np.array([mu_hat, math.log(sigma), td]), -ll_best, evals[0]


class _RowFits(NamedTuple):
    t: np.ndarray  # (m, d) best point per data row, optimizer coordinates
    nll: np.ndarray  # (m,) its negative log-likelihood in standardized units
    iterations: np.ndarray  # (m,) simplex steps summed over the row's runs
    converged: np.ndarray  # (m,) convergence flag of the best run


def _fit_rows(spec: _Family, w: np.ndarray, cfg: FitConfig, extra=()) -> _RowFits:
    """Fit spec to every standardized data row of w (m, n) at once.

    The normal family is closed form and the two-piece normal profile runs
    per row.  Simplex families run, for every row, the points in extra
    (each (m, d)) and then the first cfg.restarts structural starts, all in
    one batched simplex; each row keeps its first best run.
    """
    m, n = w.shape
    if spec.nll is None:
        mu = w.mean(axis=1)
        ls = 0.5 * np.log(np.mean((w - mu[:, None]) ** 2, axis=1))
        nll = n * (LOG_SQRT_TWO_PI + ls + 0.5)
        return _RowFits(
            np.column_stack((mu, ls)), nll, np.zeros(m, dtype=int), np.ones(m, dtype=bool)
        )
    if spec.name == "twopiece_normal" and cfg.two_piece_profile:
        t, nll, evals = zip(*(_two_piece_profile(row, cfg) for row in w))
        return _RowFits(np.array(t), np.array(nll), np.array(evals), np.ones(m, dtype=bool))

    starts = [*extra, *spec.starts(w, cfg)[: cfg.restarts]]
    k = len(starts)
    d = spec.n_free
    simplex = np.stack(
        [s if s.ndim == 3 else _simplex(s, spec.steps) for s in starts], axis=1
    )
    per = _rows_per_batch(n)

    def fn(t, rows):
        # problem p fits data row p // k
        val = np.concatenate(
            [
                spec.nll(t[i : i + per], w[rows[i : i + per] // k], cfg)
                for i in range(0, len(rows), per)
            ]
        )
        bad = (np.abs(t[:, 0]) > 1e6) | (np.abs(t[:, 1]) > 200.0) | ~np.isfinite(val)
        return np.where(bad, np.inf, val)

    maxiter = cfg.maxiter if cfg.maxiter is not None else 400 * d
    with np.errstate(all="ignore"):
        x, fun, iters, conv = _batch_nelder_mead(
            fn, simplex.reshape(m * k, d + 1, d), cfg.xatol, cfg.fatol, maxiter
        )
    pick = np.arange(m) * k + np.argmin(fun.reshape(m, k), axis=1)
    return _RowFits(x[pick], fun[pick], iters.reshape(m, k).sum(axis=1), conv[pick])


def _fit(spec: _Family, data, cfg: FitConfig, extra_starts=()) -> FitResult:
    """The fit path of fit_mle and fit_mle_penalized_skew_normal."""
    x = _as_data(data)
    min_n = spec.n_free + 1
    if x.size < min_n:
        raise ValueError(f"{spec.name} fit needs at least {min_n} observations, got {x.size}")
    w, (e,), (m0,), (s0,) = _standardize(x[None, :])
    if s0 == 0.0:
        raise ValueError("degenerate sample: zero variance")
    extra = [
        _enc_common(_to_w_units(p, e, m0, s0), cfg, spec.name)[None, :]
        for p in extra_starts
    ]
    fit = _fit_rows(spec, w, cfg, extra)
    params = _from_w_units(spec.decode(fit.t[0], cfg), e, m0, s0)
    if spec.name in ("twopiece_normal", "twopiece_t"):
        params["scaling"] = cfg.scaling
    loglik = log_likelihood(spec.name, params, x)
    n = x.size
    return FitResult(
        family=spec.name,
        params=params,
        loglik=loglik,
        aic=2.0 * spec.n_free - 2.0 * loglik,
        bic=spec.n_free * math.log(n) - 2.0 * loglik,
        n=n,
        converged=bool(fit.converged[0]),
        iterations=int(fit.iterations[0]),
        boundary_flag=spec.boundary(params),
    )


def fit_mle(
    family: str,
    data,
    config: Optional[FitConfig] = None,
    extra_starts: Optional[Sequence[dict]] = None,
) -> FitResult:
    """Maximum-likelihood fit of one family.

    Data are standardized internally, so results are location-scale
    equivariant at any floating-point scale.  extra_starts, if given, are
    parameter dicts (natural units) run as additional optimizer starting
    points before the structural ones.
    """
    if family not in _FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; expected one of {', '.join(FAMILY_ORDER)}"
        )
    cfg = config if config is not None else FitConfig()
    return _fit(_FAMILIES[family], data, cfg, extra_starts or ())


def fit_mle_penalized_skew_normal(data, config: Optional[FitConfig] = None) -> FitResult:
    """Skew-normal fit with the penalty c1*ln(1 + c2*delta^2) on the loglik.

    The penalty keeps the asymmetry estimate finite on samples where plain
    maximum likelihood runs to the frontier.  The reported loglik (and the
    criteria built from it) is the unpenalized value at the penalized optimum.
    """
    cfg = config if config is not None else FitConfig()
    return _fit(_PENALIZED_SKEW_NORMAL, data, cfg)


def fit_gh_quantile(data) -> GhQuantileFit:
    """Letter-value estimates of the g-and-h parameters.

    g comes from the median of depth-wise log half-spread ratios; h and sigma
    come from regressing the log corrected full spreads on z_p^2 / 2.  This
    sidesteps the family's unavailable closed-form density.
    """
    x = _as_data(data)
    if x.size < 50:
        raise ValueError(f"letter-value fit needs at least 50 observations, got {x.size}")
    med = float(np.median(x))
    ps = np.array([0.75, 0.875, 0.9375, 0.96875])
    zp = ndtri(ps)
    upper = np.quantile(x, ps)
    lower = np.quantile(x, 1.0 - ps)
    uhs = upper - med
    lhs = med - lower
    if np.any(uhs <= 0.0) or np.any(lhs <= 0.0):
        raise ValueError("tied letter values: half-spreads must be positive at every depth")
    g = float(np.median(np.log(uhs / lhs) / zp))
    spread = upper - lower
    if abs(g) < 1e-8:
        corr = 1.0 / (2.0 * zp)
    else:
        corr = g / (np.exp(g * zp) - np.exp(-g * zp))
    y = np.log(spread * corr)
    slope, intercept = np.polyfit(0.5 * zp * zp, y, 1)
    return GhQuantileFit(
        mu=med, sigma=float(math.exp(intercept)), g=g, h=float(slope), n=int(x.size)
    )


# ---------------------------------------------------------------------------
# model comparison


def model_select(fits: Sequence[FitResult], criterion: str = "aic"):
    """Rank fits best-first; ties break toward fewer parameters."""
    if criterion not in ("aic", "bic"):
        raise ValueError(f"criterion must be 'aic' or 'bic', got {criterion!r}")
    fits = list(fits)
    if not fits:
        raise ValueError("no fits to rank")
    sizes = {f.n for f in fits}
    if len(sizes) != 1:
        raise ValueError(f"fits mix sample sizes {sorted(sizes)}; refusing to rank")

    def key(f: FitResult):
        value = f.aic if criterion == "aic" else f.bic
        spec = _FAMILIES.get(f.family)
        n_free = spec.n_free if spec is not None else len(f.params)
        order = FAMILY_ORDER.index(f.family) if f.family in FAMILY_ORDER else len(FAMILY_ORDER)
        return (value, n_free, order)

    return sorted(fits, key=key)


# ---------------------------------------------------------------------------
# bootstrap-calibrated likelihood-ratio test


def _null_embed(null_family, alt_family, params, cfg):
    """Starting points that reproduce the fitted null inside the alternative.

    The alternative's coordinates beyond the null's are zero at the null
    (delta = 0, or ISF delta = 1); the null's parameters fill the rest.
    """
    if (null_family, alt_family) not in _EMBEDDED_PAIRS:
        return []
    alt = _FAMILIES[alt_family]
    return [{**alt.decode(np.zeros(alt.n_free), cfg), **params}]


def _bootstrap_stats(null_family, alt_family, rows, cfg):
    """LR statistics 2 (loglik_alt - loglik_null) of each data row.

    Both families are fit on the same standardized rows, so the scale terms
    cancel from the statistic.  NaN marks a row whose refit failed.
    """
    w, _, _, s0 = _standardize(rows)
    null_spec, alt_spec = _FAMILIES[null_family], _FAMILIES[alt_family]
    null = _fit_rows(null_spec, w, cfg)
    extra = []
    if (null_family, alt_family) in _EMBEDDED_PAIRS:
        pad = alt_spec.n_free - null_spec.n_free
        extra.append(np.pad(null.t, ((0, 0), (0, pad))))
    alt = _fit_rows(alt_spec, w, cfg, extra)
    return np.where(s0 > 0.0, 2.0 * (null.nll - alt.nll), np.nan)


def lr_test(
    data,
    null_family: str,
    alt_family: str,
    b_reps: int,
    rng: Optional[np.random.Generator] = None,
    config: Optional[FitConfig] = None,
) -> TestResult:
    """Parametric-bootstrap likelihood-ratio test for one nested pair.

    The statistic is max(0, 2 * (loglik_alt - loglik_null)).  Its null
    distribution is estimated by refitting both families on b_reps samples
    drawn from the fitted null; p = (1 + #{boot >= observed}) / (b_reps + 1).
    Each replicate gets an independent child generator spawned from rng, so
    results are reproducible for a given seed and config.  Replicates are
    refit in batches of bounded size.
    """
    if (null_family, alt_family) not in NESTED_PAIRS:
        allowed = ", ".join(f"{a} < {b}" for a, b in sorted(NESTED_PAIRS))
        raise ValueError(
            f"({null_family!r}, {alt_family!r}) is not a supported nested pair; "
            f"supported: {allowed}"
        )
    b = int(b_reps)
    if b < 99:
        raise ValueError(f"need at least 99 bootstrap replicates, got {b}")
    x = _as_data(data)
    cfg = config if config is not None else FitConfig()
    gen = rng if rng is not None else make_rng(0)

    null_fit = fit_mle(null_family, x, cfg)
    alt_fit = fit_mle(
        alt_family, x, cfg, extra_starts=_null_embed(null_family, alt_family, null_fit.params, cfg)
    )
    observed = max(0.0, 2.0 * (alt_fit.loglik - null_fit.loglik))

    null_dist = distribution_for(null_family, null_fit.params)
    n = x.size
    children = gen.spawn(b)
    per = _rows_per_batch(n)
    stats = np.concatenate(
        [
            _bootstrap_stats(
                null_family,
                alt_family,
                np.array([null_dist.sample(n, child) for child in children[i : i + per]]),
                cfg,
            )
            for i in range(0, b, per)
        ]
    )
    ok = np.isfinite(stats)
    failures = int(b - np.count_nonzero(ok))
    if failures > 0.05 * b:
        raise NumericsError(
            f"{failures} of {b} bootstrap refits failed; cannot calibrate the test"
        )
    exceed = int(np.count_nonzero(np.maximum(stats[ok], 0.0) >= observed))
    p_value = (1.0 + exceed) / (b + 1.0)
    return TestResult(
        statistic=observed,
        p_value=p_value,
        replicates=b,
        method="parametric_bootstrap",
        failures=failures,
    )
