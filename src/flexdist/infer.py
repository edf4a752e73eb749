"""Likelihood fitting, information-criterion ranking, and calibrated tests.

Families are fit by maximum likelihood over an unconstrained
reparameterization (log sigma, bounded-tanh delta, log nu).  Each optimized
family has one negative log-likelihood kernel, which evaluates a batch of
parameter rows against standardized data rows and returns the values with
their analytic scores (the skew-t differences its one partial without a
closed form).  One batched quasi-Newton optimizer (BFGS with a backtracking
line search) drives every kernel: a fit runs all of its start points in one
batch, and a bootstrap test refits all replicates and their starts in one
batch.  Each run's inverse-Hessian approximation starts from the diagonal of
the inverse outer product of the per-observation scores at its start point
(the BHHH matrix, Berndt, Hall, Hall & Hausman 1974): each coordinate's
estimated sampling variance, which puts the very differently scaled
coordinates on one footing.  Where that outer product is not finite or its
condition number exceeds _OPG_COND, the run starts from the identity.  The
start points are structural (moment, quantile and frontier
starts) and deterministic, so fits draw no random numbers.  The normal
family has a closed form, and the two-piece normal family an exact
profile-likelihood path: for fixed mu the optimal scale and asymmetry are
closed-form, so the fit reduces to a one-dimensional search over mu.  The
Nelder-Mead simplex (nelder_mead) is a public utility; no fit uses it.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.special import digamma, gammaln, log_ndtr, ndtri

from .base import (
    LOG_SQRT_TWO_PI,
    LocatedBase,
    LocationScale,
    NumericsError,
    golden_section_max,
    log_stdtr,
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

# the line search's sufficient-decrease constant, and its cap on the max-norm
# (optimizer coordinates) of a trial step taken before any accepted step has
# scaled the BFGS matrix
_ARMIJO = 1e-4
_MAX_STEP = 1.0
# steps in a row that each lower the value by at most fatol before a fit
# stops on a flat ridge
_STALLS = 5

# relative step of the forward difference for the skew-t's one partial
# without a closed form: log T_k(a) in the degrees of freedom k at fixed a
_DOF_STEP = 1e-7

# cap on the row x point elements of one kernel evaluation and of one chunk
# of bootstrap replicates, so memory stays bounded at any n and B
_BATCH_ELEMENTS = 1 << 20

# largest condition number of an outer product of scores that seeds BFGS;
# a run whose matrix is worse (or not finite) starts from the identity
_OPG_COND = 1e12


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
    This is the one-problem case of the batched simplex; no fit uses it.
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
# the quasi-Newton optimizer every fit runs


def _batch_bfgs(fn, x0, h0, xatol, fatol, maxiter):
    """BFGS with a backtracking line search over a batch of independent problems.

    x0 (m, d) holds each problem's start.  fn(T, rows) returns the values
    (k,) and scores (k, d) of parameter rows T (k, d) for problem indices
    rows; a non-finite value or score counts as +inf.  h0 = (h, seeded) gives
    each problem's initial inverse-Hessian approximation h (m, d, d), as
    _opg_seed returns it.  A seeded problem takes its first trial step at
    full length along -h g.  An unseeded one, whose h must be the identity,
    caps its first trial step at max-norm _MAX_STEP and scales the identity
    by the curvature its first accepted step sees, as every problem does
    after a restart from the identity: a problem restarts there when its
    search direction points uphill or its line search fails away from a
    wall.  A problem converges when an accepted step has max-norm at most
    xatol and lowers the value by at most fatol, when _STALLS steps in a row
    lower it by at most fatol (a flat ridge), or when neither its search
    direction nor steepest descent holds a lower value at steps down to
    xatol.  Converged problems
    are frozen, and each problem's arithmetic is its own, so its result does
    not depend on its batch-mates.  Returns per-problem best point, value,
    iteration count and convergence flag.
    """

    def ev(t, rows):
        f, g = fn(t, rows)
        bad = ~(np.isfinite(f) & np.isfinite(g).all(axis=1))
        return np.where(bad, np.inf, f), np.where(bad[:, None], 0.0, g)

    x = np.array(x0, dtype=float)
    m, d = x.shape
    eye = np.eye(d)
    f, g = ev(x, np.arange(m))
    h = np.array(h0[0], dtype=float)  # inverse-Hessian approximations
    fresh = ~h0[1]  # h is the identity, not yet scaled by an accepted step
    active = np.isfinite(f)
    conv = np.zeros(m, dtype=bool)
    iters = np.zeros(m, dtype=int)
    stalls = np.zeros(m, dtype=int)  # consecutive steps lowering f by <= fatol
    it = 0
    while it < maxiter and active.any():
        rows = np.where(active)[0]
        gr = g[rows]
        p = -np.sum(h[rows] * gr[:, None, :], axis=2)
        slope = np.sum(p * gr, axis=1)
        uphill = ~(slope < 0.0)
        if uphill.any():
            h[rows[uphill]] = eye
            fresh[rows[uphill]] = True
            p[uphill] = -gr[uphill]
            slope[uphill] = -np.sum(gr[uphill] ** 2, axis=1)
        size = np.max(np.abs(p), axis=1)
        # an unscaled step has no measured curvature behind its length
        alpha = np.where(
            fresh[rows], np.minimum(1.0, _MAX_STEP / np.maximum(size, 1e-300)), 1.0
        )
        first = alpha * size

        # backtracking search for a sufficient decrease, shrinking each trial
        # step by safeguarded quadratic interpolation; (xt, ft, gt) ends as
        # the accepted point, or else the shortest trial
        xt = x[rows].copy()
        ft = np.full(rows.size, np.inf)
        gt = np.zeros_like(p)
        found = np.zeros(rows.size, dtype=bool)
        pending = np.where(size > 0.0)[0]
        while pending.size:
            r = rows[pending]
            a = alpha[pending]
            xt[pending] = x[r] + a[:, None] * p[pending]
            ft[pending], gt[pending] = ev(xt[pending], r)
            fa = ft[pending]
            ok = (fa < f[r]) & (fa <= f[r] + _ARMIJO * a * slope[pending])
            found[pending[ok]] = True
            pending, a, fa, r = pending[~ok], a[~ok], fa[~ok], r[~ok]
            sl = slope[pending]
            quad = -sl * a * a / (2.0 * (fa - f[r] - sl * a))
            alpha[pending] = np.where(
                np.isfinite(fa), np.clip(quad, 0.1 * a, 0.5 * a), 0.1 * a
            )
            pending = pending[alpha[pending] * size[pending] > xatol]

        iters[rows] += 1
        it += 1
        s = xt - x[rows]
        y = gt - gr
        sy = np.sum(s * y, axis=1)
        yy = np.sum(y * y, axis=1)
        curved = sy > 1e-12 * np.sqrt(np.sum(s * s, axis=1) * yy)
        lost = ~found
        # a failed search whose shortest trial still rose by more than fatol
        # ran into a wall, such as a kink where a data point changes sides:
        # its curvature turns the next direction along the wall
        wall = lost & curved & np.isfinite(ft) & (ft - f[rows] > fatol)
        stop = lost & ~wall & ((first <= xatol) | fresh[rows])
        retry = lost & ~wall & ~stop

        r = rows[found]
        flat = f[r] - ft[found] <= fatol
        stalls[r] = np.where(flat, stalls[r] + 1, 0)
        done = flat & ((np.max(np.abs(s[found]), axis=1) <= xatol) | (stalls[r] >= _STALLS))
        x[r], f[r], g[r] = xt[found], ft[found], gt[found]
        conv[r[done]] = True
        active[r[done]] = False
        conv[rows[stop]] = True
        active[rows[stop]] = False
        h[rows[retry]] = eye
        fresh[rows[retry]] = True

        upd = (found & curved) | wall
        scale = found[upd] & fresh[rows[upd]]
        r, s, y, sy, yy = rows[upd], s[upd], y[upd], sy[upd], yy[upd]
        hr = h[r]
        # before the first update from an accepted step, scale h to the
        # curvature that step saw
        hr[scale] *= (sy / yy)[scale, None, None]
        hy = np.sum(hr * y[:, None, :], axis=2)
        rho = 1.0 / sy
        outer = s[:, :, None] * hy[:, None, :]
        h[r] = (
            hr
            - rho[:, None, None] * (outer + outer.transpose(0, 2, 1))
            + (rho + rho * rho * np.sum(y * hy, axis=1))[:, None, None]
            * s[:, :, None]
            * s[:, None, :]
        )
        fresh[r[scale]] = False

    return x, f, iters, conv


def _opg_seed(nll, w, t, rows, cfg):
    """BFGS seeds from the outer product of per-observation scores (BHHH).

    Parameter row i of t (p, d) belongs to data row rows[i] of w (m, n).  A
    kernel evaluated on one data point returns that point's score, so each
    problem's scores S (n, d) come from one kernel pass over single points,
    at most _BATCH_ELEMENTS of them per call.  Returns (h, seeded): h
    (p, d, d) holds the diagonal of (S'S)^-1, each coordinate's estimated
    sampling variance, where seeded, and the identity where S'S is not
    finite or its condition number exceeds _OPG_COND.

    Only the diagonal is kept.  Far from the optimum the full (S'S)^-1 is a
    poor Hessian: on some samples its steps run onto the skew-normal's
    stationary null point, or past the clip of log nu into the flat region
    beyond it, and the fit ends at a worse local optimum.
    """
    p, d = t.shape
    n = w.shape[1]
    per = _rows_per_batch(n)
    opg = np.empty((p, d, d))
    for i in range(0, p, per):
        part = t[i : i + per]
        score = nll(np.repeat(part, n, axis=0), w[rows[i : i + per]].reshape(-1, 1), cfg)[1]
        score = score.reshape(part.shape[0], n, d)
        opg[i : i + per] = np.einsum("kni,knj->kij", score, score)
    seeded = np.isfinite(opg).all(axis=(1, 2))
    seeded[seeded] = np.linalg.cond(opg[seeded]) <= _OPG_COND
    h = np.tile(np.eye(d), (p, 1, 1))
    h[seeded] *= np.diagonal(np.linalg.inv(opg[seeded]), axis1=1, axis2=2)[:, None, :]
    return h, seeded


# ---------------------------------------------------------------------------
# parameter maps between the optimizer space and natural parameters; each
# takes a float or an array.  The _d forms also return the slope in t that
# the scores chain through.


def _dec_bounded(t, cap: float):
    return cap * np.tanh(_MAP_SLOPE * t / cap)


def _dec_bounded_d(t, cap: float):
    th = np.tanh(_MAP_SLOPE * t / cap)
    return cap * th, _MAP_SLOPE * (1.0 - th * th)


def _enc_bounded(delta, cap: float):
    u = np.clip(delta / cap, -1.0 + 1e-15, 1.0 - 1e-15)
    return cap / _MAP_SLOPE * np.arctanh(u)


def _dec_log(t, lo: float, hi: float):
    return np.exp(np.clip(t, math.log(lo), math.log(hi)))


def _dec_log_d(t, lo: float, hi: float):
    # outside the box the clip holds the value, so the slope is zero there
    v = _dec_log(t, lo, hi)
    return v, np.where((t >= math.log(lo)) & (t <= math.log(hi)), v, 0.0)


def _enc_log(v, lo: float, hi: float):
    return np.log(np.clip(v, lo, hi))


def _dec_eps(t):
    return _EPS_CAP * np.tanh(t)


def _dec_eps_d(t):
    th = np.tanh(t)
    return _EPS_CAP * th, _EPS_CAP * (1.0 - th * th)


def _enc_eps(delta):
    u = np.clip(delta / _EPS_CAP, -1.0 + 1e-12, 1.0 - 1e-12)
    return np.arctanh(u)


def _sigma_of(ls):
    return np.exp(np.clip(ls, -200.0, 200.0))


def _t_const(nu):
    return gammaln(0.5 * (nu + 1.0)) - gammaln(0.5 * nu) - 0.5 * np.log(nu * math.pi)


def _t_const_d(nu):
    return 0.5 * (digamma(0.5 * (nu + 1.0)) - digamma(0.5 * nu) - 1.0 / nu)


# ---------------------------------------------------------------------------
# negative log-likelihoods, one kernel per optimized family: parameter rows
# t (k, d) in optimizer coordinates against standardized data rows w (k, n).
# Each returns the values (k,) and the scores (k, d), their partials in t.


def _z(t, w):
    return (w - t[:, :1]) * np.exp(-t[:, 1:2])


def _loc_scale_score(gz, z, t):
    """Partials in mu and log sigma of n log sigma + sum g(z), given gz = g'(z)."""
    return -np.exp(-t[:, 1]) * np.sum(gz, axis=1), z.shape[1] - np.sum(gz * z, axis=1)


def _t_tail(v, nu):
    """-n C(nu) + (nu + 1)/2 sum log1p(v^2 / nu) over each row of v (k, n).

    Returns the values, their slopes in each v and their partials in nu.
    """
    q = v * v
    nuc = nu[:, None]
    tail = np.sum(np.log1p(q / nuc), axis=1)
    val = 0.5 * (nu + 1.0) * tail - v.shape[1] * _t_const(nu)
    d_nu = (
        0.5 * tail
        - 0.5 * (nu + 1.0) / nu * np.sum(q / (nuc + q), axis=1)
        - v.shape[1] * _t_const_d(nu)
    )
    return val, (nuc + 1.0) * v / (nuc + q), d_nu


def _nll_logistic(t, w, cfg):
    z = _z(t, w)
    az = np.abs(z)
    val = w.shape[1] * t[:, 1] + np.sum(az + 2.0 * np.log1p(np.exp(-az)), axis=1)
    return val, np.column_stack(_loc_scale_score(np.tanh(0.5 * z), z, t))


def _nll_t(t, w, cfg):
    nu, d_nu = _dec_log_d(t[:, 2], _NU_LO, _NU_HI)
    z = _z(t, w)
    tail, gz, g_nu = _t_tail(z, nu)
    return (
        w.shape[1] * t[:, 1] + tail,
        np.column_stack((*_loc_scale_score(gz, z, t), g_nu * d_nu)),
    )


def _nll_skew_normal(t, w, cfg, penalized=False):
    delta, d_delta = _dec_bounded_d(t[:, 2], _SKEW_CAP)
    z = _z(t, w)
    s = delta[:, None] * z
    log_cdf = log_ndtr(s)
    val = (
        w.shape[1] * (t[:, 1] + LOG_SQRT_TWO_PI - _LOG_TWO)
        + 0.5 * np.einsum("ij,ij->i", z, z)
        - np.sum(log_cdf, axis=1)
    )
    # the Mills ratio phi(s) / Phi(s), taken through log_ndtr so it stays
    # finite where Phi(s) underflows
    mills = np.exp(-0.5 * s * s - LOG_SQRT_TWO_PI - log_cdf)
    g_delta = -np.sum(z * mills, axis=1)
    if penalized:
        c2d2 = cfg.penalty_c2 * delta * delta
        val += cfg.penalty_c1 * np.log1p(c2d2)
        g_delta += 2.0 * cfg.penalty_c1 * cfg.penalty_c2 * delta / (1.0 + c2d2)
    gz = z - delta[:, None] * mills
    return val, np.column_stack((*_loc_scale_score(gz, z, t), g_delta * d_delta))


def _nll_skew_t(t, w, cfg):
    nu, d_nu = _dec_log_d(t[:, 2], _NU_LO, _NU_HI)
    delta, d_delta = _dec_bounded_d(t[:, 3], _SKEW_CAP)
    z = _z(t, w)
    q = z * z
    nuc = nu[:, None]
    k = nuc + 1.0
    root = np.sqrt(k / (q + nuc))
    a = delta[:, None] * z * root
    log_cdf = log_stdtr(k, a)
    tail, gz, g_nu = _t_tail(z, nu)
    val = w.shape[1] * (t[:, 1] - _LOG_TWO) + tail - np.sum(log_cdf, axis=1)
    # the skewing factor log T_k(a): its slope in a is rho = t_k(a) / T_k(a);
    # its partial in k at fixed a has no closed form and is differenced
    rho = np.exp(_t_const(k) - 0.5 * (k + 1.0) * np.log1p(a * a / k) - log_cdf)
    step = _DOF_STEP * k
    d_k = (log_stdtr(k + step, a) - log_cdf) / step
    gz = gz - rho * delta[:, None] * root * nuc / (q + nuc)
    g_delta = -np.sum(rho * z * root, axis=1)
    g_nu = g_nu - np.sum(rho * a * (q - 1.0) / (2.0 * k * (q + nuc)) + d_k, axis=1)
    return val, np.column_stack(
        (*_loc_scale_score(gz, z, t), g_nu * d_nu, g_delta * d_delta)
    )


def _nll_sas(t, w, cfg):
    delta, d_delta = _dec_bounded_d(t[:, 2], _SAS_CAP)
    eta, d_eta = _dec_log_d(t[:, 3], _ETA_LO, _ETA_HI)
    z = _z(t, w)
    asinh_z = np.arcsinh(z)
    u = eta[:, None] * asinh_z + delta[:, None]
    y = np.sinh(u)
    au = np.abs(u)
    log_cosh = au + np.log1p(np.exp(-2.0 * au)) - _LOG_TWO
    r2 = 1.0 + z * z
    n = w.shape[1]
    val = (
        n * (t[:, 1] + LOG_SQRT_TWO_PI - np.log(eta))
        + 0.5 * np.einsum("ij,ij->i", y, y)
        - np.sum(log_cosh, axis=1)
        + 0.5 * np.sum(np.log1p(z * z), axis=1)
    )
    # slope in u of y^2 / 2 - log cosh u (Jones & Pewsey 2009)
    gu = y * np.cosh(u) - np.tanh(u)
    gz = gu * eta[:, None] / np.sqrt(r2) + z / r2
    g_delta = np.sum(gu, axis=1)
    g_eta = np.sum(gu * asinh_z, axis=1) - n / eta
    return val, np.column_stack(
        (*_loc_scale_score(gz, z, t), g_delta * d_delta, g_eta * d_eta)
    )


def _nll_two_piece(t, w, cfg):
    """Two-piece normal (d = 3) or two-piece t (d = 4, nu third)."""
    if cfg.scaling == "epsilon":
        delta, d_delta = _dec_eps_d(t[:, -1])
        s_l, s_r, log_a = 1.0 / (1.0 - delta), 1.0 / (1.0 + delta), 0.0
        # partials in delta of log s_l, log s_r and log_a
        ds_l, ds_r, d_log_a = s_l, -s_r, 0.0
    else:
        delta, d_delta = _dec_log_d(t[:, -1], _ISF_LO, _ISF_HI)
        s_l, s_r = delta, 1.0 / delta
        log_a = np.log(2.0 / (delta + 1.0 / delta))
        ds_l, ds_r = 1.0 / delta, -1.0 / delta
        d_log_a = (1.0 - delta * delta) / (delta * (delta * delta + 1.0))
    z = _z(t, w)
    left = z < 0.0
    s = np.where(left, s_l[:, None], s_r[:, None])
    v = s * z
    n = w.shape[1]
    if t.shape[1] == 4:
        nu, d_nu = _dec_log_d(t[:, 2], _NU_LO, _NU_HI)
        tail, gv, g_nu = _t_tail(v, nu)
        val = n * (t[:, 1] - log_a) + tail
        shape = (g_nu * d_nu,)
    else:
        val = n * (t[:, 1] + LOG_SQRT_TWO_PI - log_a) + 0.5 * np.einsum("ij,ij->i", v, v)
        gv, shape = v, ()
    ds = np.where(left, ds_l[:, None], ds_r[:, None])
    g_delta = np.sum(gv * v * ds, axis=1) - n * d_log_a
    return val, np.column_stack(
        (*_loc_scale_score(gv * s, z, t), *shape, g_delta * d_delta)
    )


# ---------------------------------------------------------------------------
# structural start points for standardized data rows w (m, n): each entry is
# an (m, d) array of points, or an (m, j, d) stack whose first point is run
# and whose other points bound that run's result from above.  The skewed
# starts take the rows' third moments g1 = mean(w^3), computed once per list.


def _points(m: int, *cols):
    return np.column_stack([np.broadcast_to(np.asarray(c, dtype=float), (m,)) for c in cols])


def _third_moment(w):
    return np.mean(w**3, axis=1)


def _skewness_sign(g1):
    return np.where(g1 >= 0.0, 1.0, -1.0)


def _skew_normal_moment_start(g1):
    """Method-of-moments inversion: mu, log sigma and t of delta per row."""
    b = math.sqrt(2.0 / math.pi)
    a1 = np.minimum(np.abs(g1), 0.99)
    c = (2.0 * a1 / (4.0 - math.pi)) ** (1.0 / 3.0)
    mm = c / np.sqrt(1.0 + c * c)
    mb = np.minimum(mm / b, 0.995)
    d0 = np.copysign(mb / np.sqrt(1.0 - mb * mb), g1)
    md = b * d0 / np.sqrt(1.0 + d0 * d0)
    s0 = 1.0 / np.sqrt(np.maximum(1.0 - md * md, 1e-3))
    return -s0 * md, np.log(s0), _enc_bounded(d0, _SKEW_CAP)


def _chase_start(w, sign):
    """mu, log sigma and t of delta at the half-normal limit the ridge runs to."""
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
    """The moment start floored by the null point, then the frontier chase.

    The first start runs from the method-of-moments point and ends no higher
    than the exact null point, so even a one-start fit never ends above the
    normal fit.  No run starts at the null itself: standardized data have
    sum(z) = 0, so the skew-normal score vanishes there and a
    derivative-based run would never leave it.
    """
    m = w.shape[0]
    g1 = _third_moment(w)
    moment = _points(m, *_skew_normal_moment_start(g1))
    chase = _points(m, *_chase_start(w, _skewness_sign(g1)))
    return [np.stack((moment, np.zeros((m, 3))), axis=1), chase]


def _starts_skew_t(w, cfg):
    m = w.shape[0]
    g1 = _third_moment(w)
    m0, ls0, td0 = _skew_normal_moment_start(g1)
    mu_c, ls_c, td_c = _chase_start(w, _skewness_sign(g1))
    return [
        _points(m, 0.0, 0.0, math.log(5.0), 0.0),
        _points(m, m0, ls0, math.log(5.0), td0),
        _points(m, mu_c, ls_c, math.log(5.0), td_c),
        _points(m, m0, ls0, math.log(2.0), td0),
    ]


def _starts_sas(w, cfg):
    m = w.shape[0]
    sign = _skewness_sign(_third_moment(w))
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
    """Three quantile starts, then the frontier chase.

    The chase puts mu at the sample extreme the skewness points away from
    and the asymmetry at its cap, so that the wide side holds all the data:
    the frontier optimum of samples like the all-positive one lies there.
    """
    m = w.shape[0]
    epsilon = cfg.scaling == "epsilon"
    nu = (math.log(5.0),) if with_nu else ()
    out = []
    for q in (0.25, 0.5, 0.75):
        mu0 = np.quantile(w, q, axis=1)
        p_left = np.clip(np.mean(w < mu0[:, None], axis=1), 0.05, 0.95)
        if epsilon:
            td = _enc_eps(1.0 - 2.0 * p_left)
        else:
            td = _enc_log(np.sqrt(1.0 / p_left - 1.0), _ISF_LO, _ISF_HI)
        out.append(_points(m, mu0, 0.0, *nu, td))
    sign = _skewness_sign(_third_moment(w))
    mu_c, ls_c, _ = _chase_start(w, sign)
    # log of the wide side's scale over sigma at the cap
    wide = _LOG_TWO if epsilon else math.log(_ISF_HI)
    td = sign * (_enc_eps(_EPS_CAP) if epsilon else wide)
    out.append(_points(m, mu_c, ls_c - wide, *nu, td))
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
    boundary: Callable


_FAMILIES = {
    "normal": _Family("normal", 2, None, _dec_normal, None, _boundary_none),
    "logistic": _Family(
        "logistic",
        2,
        _nll_logistic,
        _dec_normal,
        _starts_logistic,
        _boundary_none,
    ),
    "t": _Family(
        "t",
        3,
        _nll_t,
        _dec_t,
        _starts_t,
        _boundary_none,
    ),
    "skew_normal": _Family(
        "skew_normal",
        3,
        _nll_skew_normal,
        _dec_skew_normal,
        _starts_skew_normal,
        _boundary_skew,
    ),
    "skew_t": _Family(
        "skew_t",
        4,
        _nll_skew_t,
        _dec_skew_t,
        _starts_skew_t,
        _boundary_skew,
    ),
    "sas_normal": _Family(
        "sas_normal",
        4,
        _nll_sas,
        _dec_sas,
        _starts_sas,
        _boundary_sas,
    ),
    "twopiece_normal": _Family(
        "twopiece_normal",
        3,
        _nll_two_piece,
        _dec_two_piece,
        partial(_starts_two_piece, with_nu=False),
        _boundary_two_piece,
    ),
    "twopiece_t": _Family(
        "twopiece_t",
        4,
        _nll_two_piece,
        _dec_two_piece,
        partial(_starts_two_piece, with_nu=True),
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

    restarts caps the number of optimizer starts taken from the front of
    the family's structural start list; there are no random starts, so a fit
    is a deterministic function of its data and config.  A run stops when a
    step's max-norm is at most xatol and it lowers the negative
    log-likelihood by at most fatol, when several steps in a row each lower
    it by at most fatol, or after maxiter iterations (default 400 per free
    parameter).  scaling picks the two-piece parameterization.
    two_piece_profile switches the two-piece normal fit to the exact
    profile-likelihood path.
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
    """One fitted family.

    iterations counts optimizer iterations: quasi-Newton steps summed over
    the fit's starts, golden-section evaluations on the two-piece normal
    profile path, and 0 for the normal family's closed form.
    """

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
    golden-section evaluations.
    """
    xs = np.sort(w)
    n = xs.size
    s1 = np.concatenate(([0.0], np.cumsum(xs)))
    s2 = np.concatenate(([0.0], np.cumsum(xs * xs)))
    xs_list = xs.tolist()
    s1_list = s1.tolist()
    s2_list = s2.tolist()
    s1n, s2n = s1_list[n], s2_list[n]
    sixth = 1.0 / 6.0
    const = 0.5 * n + n * LOG_SQRT_TWO_PI

    def at(mu: float):
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
        return ll

    mids = 0.5 * (xs[:-1] + xs[1:])
    cands = np.unique(np.concatenate((xs, mids, [np.mean(xs)])))
    ll_c = profile_grid(cands)
    i = int(np.argmax(ll_c))
    lo = cands[max(i - 1, 0)]
    hi = cands[min(i + 1, cands.size - 1)]
    span = max(float(xs[-1] - xs[0]), 1e-12)
    evals = 0

    def search(mu: float) -> float:
        nonlocal evals
        evals += 1
        return at(mu)[0]

    mu_hat = golden_section_max(search, float(lo), float(hi), tol=1e-7 * span)
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
    return np.array([mu_hat, math.log(sigma), td]), -ll_best, evals


class _RowFits(NamedTuple):
    t: np.ndarray  # (m, d) best point per data row, optimizer coordinates
    nll: np.ndarray  # (m,) its negative log-likelihood in standardized units
    iterations: np.ndarray  # (m,) optimizer iterations summed over the row's starts
    converged: np.ndarray  # (m,) convergence flag of the best start


def _fit_rows(spec: _Family, w: np.ndarray, cfg: FitConfig, extra=()) -> _RowFits:
    """Fit spec to every standardized data row of w (m, n) at once.

    The normal family is closed form and the two-piece normal profile runs
    per row.  The other families run, for every row, the points in extra
    (each (m, d)) and then the first cfg.restarts structural starts, all in
    one batched quasi-Newton run seeded by _opg_seed at every start.  Each
    row keeps its first best start.
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
    per = _rows_per_batch(n)

    def fn(t, rows):
        # parameter row i against data row rows[i], `per` rows at a time
        val, score = (
            np.concatenate(part)
            for part in zip(
                *(spec.nll(t[i : i + per], w[rows[i : i + per]], cfg)
                  for i in range(0, len(rows), per))
            )
        )
        bad = (np.abs(t[:, 0]) > 1e6) | (np.abs(t[:, 1]) > 200.0)
        return np.where(bad, np.inf, val), score

    maxiter = cfg.maxiter if cfg.maxiter is not None else 400 * d
    rows = np.arange(m)
    with np.errstate(all="ignore"):
        x0 = np.stack([s if s.ndim == 2 else s[:, 0] for s in starts], axis=1).reshape(m * k, d)
        h0 = _opg_seed(spec.nll, w, x0, np.arange(m * k) // k, cfg)
        x, fun, iters, conv = _batch_bfgs(
            lambda t, rows: fn(t, rows // k), x0, h0, cfg.xatol, cfg.fatol, maxiter
        )
        x, fun = x.reshape(m, k, d), fun.reshape(m, k)
        for j, s in enumerate(starts):
            # a stacked start's other points bound its result from above
            for point in np.moveaxis(s[:, 1:], 1, 0) if s.ndim == 3 else ():
                val = fn(point, rows)[0]
                lower = val < fun[:, j]
                x[lower, j], fun[lower, j] = point[lower], val[lower]
    best = np.argmin(fun, axis=1)
    return _RowFits(
        x[rows, best], fun[rows, best], iters.reshape(m, k).sum(axis=1), conv.reshape(m, k)[rows, best]
    )


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
