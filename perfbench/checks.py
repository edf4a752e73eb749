"""Output checks built apart from flexdist.

Every reference here is written with numpy and scipy primitives
(``scipy.stats`` laws, ``scipy.special``, ``scipy.integrate.quad``) and the
closed forms of the paper's families, never with flexdist code.  Each
``check_*`` function returns a list of failure messages; an empty list means
the output passed.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special, stats

from laws import gh_inverse, k_inverse, two_piece_scales

# free parameters per family, for AIC/BIC
N_FREE = {
    "normal": 2, "logistic": 2, "t": 3, "skew_normal": 3, "skew_t": 4,
    "sas_normal": 4, "twopiece_normal": 3, "twopiece_t": 4,
}

# (null, alternative): the alternative contains the null, so its maximised
# log-likelihood cannot be lower
NESTED = (
    ("normal", "skew_normal"),
    ("normal", "sas_normal"),
    ("normal", "twopiece_normal"),
    ("t", "skew_t"),
    ("t", "twopiece_t"),
)

# the fitter's parameter box; scipy estimates outside it are not comparable
NU_RANGE = (0.5, 200.0)
SKEW_CAP = 200.0
# the skew-t cdf is compared with quad at every QUAD_STRIDE-th sorted point
QUAD_STRIDE = 100


# ---------------------------------------------------------------------------
# independent densities, distribution functions and samplers


def _base_law(family, p):
    return stats.t(float(p["nu"])) if family.endswith("_t") else stats.norm


def _sas_h(z, p):
    return np.sinh(float(p["eta"]) * np.arcsinh(z) + float(p["delta"]))


def logpdf(family, p, x):
    """Log-density of one catalogue family at natural parameters p."""
    x = np.asarray(x, dtype=float)
    mu, sigma = float(p["mu"]), float(p["sigma"])
    z = (x - mu) / sigma
    if family == "normal":
        return stats.norm.logpdf(x, mu, sigma)
    if family == "logistic":
        return stats.logistic.logpdf(x, mu, sigma)
    if family == "t":
        return stats.t.logpdf(x, float(p["nu"]), mu, sigma)
    if family == "skew_normal":
        return stats.skewnorm.logpdf(x, float(p["delta"]), mu, sigma)
    if family == "skew_t":
        nu, delta = float(p["nu"]), float(p["delta"])
        tilt = delta * z * np.sqrt((nu + 1.0) / (z * z + nu))
        return (math.log(2.0) - math.log(sigma) + stats.t.logpdf(z, nu)
                + stats.t.logcdf(tilt, nu + 1.0))
    if family == "sas_normal":
        w = float(p["eta"]) * np.arcsinh(z) + float(p["delta"])
        log_cosh = np.logaddexp(w, -w) - math.log(2.0)
        return (stats.norm.logpdf(np.sinh(w)) + math.log(float(p["eta"]))
                + log_cosh - 0.5 * np.log1p(z * z) - math.log(sigma))
    if family in ("twopiece_normal", "twopiece_t"):
        s_l, s_r, a = two_piece_scales(p)
        s = np.where(z < 0.0, s_l, s_r)
        return (math.log(a) - math.log(sigma)
                + _base_law(family, p).logpdf(s * z))
    raise ValueError(f"no independent density for {family!r}")


def pdf(family, p, x):
    return np.exp(logpdf(family, p, x))


def _solve_increasing(fn, targets):
    """Roots of the increasing map fn(z) = target, one brentq per target."""
    out = np.empty(len(targets))
    for i, y in enumerate(targets):
        lo, hi = -1.0, 1.0
        while fn(lo) > y:
            lo *= 2.0
        while fn(hi) < y:
            hi *= 2.0
        out[i] = optimize.brentq(lambda v: fn(v) - y, lo, hi, xtol=1e-14,
                                 rtol=4 * np.finfo(float).eps)
    return out


def cdf(family, p, x):
    """Distribution function at x (any order); quad for the skew-t."""
    x = np.asarray(x, dtype=float)
    mu, sigma = float(p["mu"]), float(p["sigma"])
    z = (x - mu) / sigma
    if family == "normal":
        return stats.norm.cdf(z)
    if family == "logistic":
        return stats.logistic.cdf(z)
    if family == "t":
        return stats.t.cdf(z, float(p["nu"]))
    if family == "skew_normal":
        return stats.skewnorm.cdf(z, float(p["delta"]))
    if family == "sas_normal":
        return stats.norm.cdf(_sas_h(z, p))
    if family in ("twopiece_normal", "twopiece_t"):
        s_l, s_r, a = two_piece_scales(p)
        law = _base_law(family, p)
        left_mass = s_r / (s_l + s_r)
        below = a / s_l * law.cdf(s_l * z)
        above = left_mass + a / s_r * (law.cdf(s_r * z) - 0.5)
        return np.where(z < 0.0, below, above)
    if family == "gh_normal":
        return stats.norm.cdf(_solve_increasing(lambda v: gh_inverse(v, p), z))
    if family == "k_normal":
        return stats.norm.cdf(_solve_increasing(lambda v: k_inverse(v, p), z))
    if family == "skew_t":
        return quad_cdf(p, x)
    raise ValueError(f"no independent distribution function for {family!r}")


def skew_t_pdf(p, x):
    """Skew-t density from scipy.special alone; fast enough for quad."""
    mu, sigma = float(p["mu"]), float(p["sigma"])
    nu, delta = float(p["nu"]), float(p["delta"])
    z = (x - mu) / sigma
    log_t = (special.gammaln(0.5 * (nu + 1.0)) - special.gammaln(0.5 * nu)
             - 0.5 * math.log(nu * math.pi) - 0.5 * (nu + 1.0) * np.log1p(z * z / nu))
    tilt = delta * z * np.sqrt((nu + 1.0) / (z * z + nu))
    return 2.0 / sigma * np.exp(log_t) * special.stdtr(nu + 1.0, tilt)


def quad_cdf(p, x):
    """Skew-t CDF by scipy quad of the density, summed over sorted gaps."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    f = lambda v: skew_t_pdf(p, v)  # noqa: E731
    mu = float(p["mu"])
    lo = min(xs[0], mu)
    acc = integrate.quad(f, -np.inf, lo, epsabs=1e-14, epsrel=1e-13,
                         limit=400)[0]
    prev = lo
    out = np.empty_like(xs)
    for i, v in enumerate(xs):
        # split at the mode region so quad sees the peak
        if prev < mu < v:
            acc += integrate.quad(f, prev, mu, epsabs=1e-14, epsrel=1e-13,
                                  limit=400)[0]
            prev = mu
        acc += integrate.quad(f, prev, v, epsabs=1e-14, epsrel=1e-13,
                              limit=400)[0]
        prev = v
        out[i] = acc
    res = np.empty_like(out)
    res[order] = out
    return res


# ---------------------------------------------------------------------------
# fit reports (flexdist-fit/1)


def _rel_close(a, b, rel):
    return abs(a - b) <= rel * max(abs(b), 1e-300)


def check_fit_report(report, x, criterion="aic"):
    """Log-likelihoods, criteria, ranking and nesting of one `fit --all`."""
    errs = []
    fits = report.get("fits", {})
    n = x.size
    if report.get("n") != n:
        errs.append(f"report n={report.get('n')} but the dataset has {n} points")
    if report.get("errors"):
        errs.append(f"families failed to fit: {report['errors']}")
    for fam, fit in fits.items():
        ref = float(np.sum(logpdf(fam, fit["params"], x)))
        if not _rel_close(fit["loglik"], ref, 1e-9):
            errs.append(f"{fam}: loglik {fit['loglik']!r} != rebuilt {ref!r}")
        k = N_FREE[fam]
        aic, bic = 2 * k - 2 * fit["loglik"], k * math.log(n) - 2 * fit["loglik"]
        if not (_rel_close(fit["aic"], aic, 1e-12) and _rel_close(fit["bic"], bic, 1e-12)):
            errs.append(f"{fam}: aic/bic {fit['aic']!r}/{fit['bic']!r} != {aic!r}/{bic!r}")
    ranking = report.get("ranking", [])
    if sorted(ranking) != sorted(fits):
        errs.append(f"ranking {ranking} does not list the fitted families")
    else:
        values = [fits[f][criterion] for f in ranking]
        if any(b < a for a, b in zip(values, values[1:])):
            errs.append(f"ranking {ranking} is not sorted by {criterion}")
    for null, alt in NESTED:
        if null in fits and alt in fits:
            if fits[alt]["loglik"] < fits[null]["loglik"] - 1e-6:
                errs.append(f"{alt} loglik {fits[alt]['loglik']!r} below nested "
                            f"{null} {fits[null]['loglik']!r}")
    return errs


def scipy_fit_logliks(x):
    """scipy's own MLE for logistic, t and skew-normal, where comparable.

    Returns {family: loglik}; a fit is left out when its estimate lies
    outside the box flexdist optimises over (on normal data scipy's t runs
    nu far past 200).
    """
    out = {}
    loc, scale = stats.logistic.fit(x)
    out["logistic"] = float(np.sum(stats.logistic.logpdf(x, loc, scale)))
    nu, loc, scale = stats.t.fit(x)
    if NU_RANGE[0] <= nu <= NU_RANGE[1]:
        out["t"] = float(np.sum(stats.t.logpdf(x, nu, loc, scale)))
    a, loc, scale = stats.skewnorm.fit(x)
    if abs(a) <= SKEW_CAP:
        out["skew_normal"] = float(np.sum(stats.skewnorm.logpdf(x, a, loc, scale)))
    return out


def check_against_scipy_fits(report, scipy_ll):
    errs = []
    for fam, ll in scipy_ll.items():
        got = report["fits"][fam]["loglik"]
        if got < ll - 1e-4:
            errs.append(f"{fam}: loglik {got!r} below scipy's fit {ll!r}")
    return errs


# ---------------------------------------------------------------------------
# bootstrap LR tests (flexdist-test/1)


def check_test_report(report, refit_statistic, b_reps, level=0.05):
    """Statistic, p-value lattice, failure budget and power of one `test`."""
    errs = []
    stat = report["statistic"]
    if abs(stat - refit_statistic) > 1e-6:
        errs.append(f"{report['alt']}: statistic {stat!r} != 2(l_alt - l_null) "
                    f"= {refit_statistic!r} from separate fits")
    if report["replicates"] != b_reps:
        errs.append(f"{report['alt']}: {report['replicates']} replicates, asked {b_reps}")
    k = report["p_value"] * (b_reps + 1) - 1.0
    if abs(k - round(k)) > 1e-9 or not 0 <= round(k) <= b_reps:
        errs.append(f"{report['alt']}: p={report['p_value']!r} is not (1+k)/(B+1)")
    if report["failures"] > 0.05 * b_reps:
        errs.append(f"{report['alt']}: {report['failures']} failed refits of {b_reps}")
    if report["p_value"] > level:
        errs.append(f"{report['alt']}: p={report['p_value']!r} does not reject at "
                    f"{level} on data drawn from the alternative")
    return errs


# ---------------------------------------------------------------------------
# distribution layer


def check_density(family, p, xs, dens):
    """Density values against the independent formula, and total mass 1."""
    errs = []
    ref = pdf(family, p, xs)
    bad = np.abs(dens - ref) > 1e-12 * np.abs(ref) + 1e-300
    if bad.any():
        i = int(np.argmax(bad))
        errs.append(f"{family} {p}: density {dens[i]!r} != {ref[i]!r} at x={xs[i]!r}")
    mu = float(p["mu"])
    f = lambda v: pdf(family, p, v)  # noqa: E731
    mass = (integrate.quad(f, -np.inf, mu, limit=400)[0]
            + integrate.quad(f, mu, np.inf, limit=400)[0])
    if abs(mass - 1.0) > 1e-6:
        errs.append(f"{family} {p}: density integrates to {mass!r}")
    return errs


def check_cdf(family, p, xs_sorted, values, dist):
    """Monotone, in [0, 1], and equal to the independent CDF.

    The skew-t and the g-and-h and K laws, whose references need quad or a
    root solve per point, are compared at every QUAD_STRIDE-th point.  For
    gh_normal and k_normal, dist.cdf(dist.quantile(p)) must also return p.
    """
    errs = []
    values = np.asarray(values, dtype=float)
    if np.any(np.diff(values) < 0.0):
        errs.append(f"{family}: cdf is not monotone on sorted points")
    if np.any((values < 0.0) | (values > 1.0)) or not np.all(np.isfinite(values)):
        errs.append(f"{family}: cdf leaves [0, 1]")
    if family in ("gh_normal", "k_normal"):
        levels = np.linspace(0.01, 0.99, 99)
        miss = np.max(np.abs(dist.cdf(dist.quantile(levels)) - levels))
        if miss > 1e-9:
            errs.append(f"{family}: cdf(quantile(p)) misses p by {miss:.3g}")
    if family in ("skew_t", "gh_normal", "k_normal"):
        idx = np.arange(0, xs_sorted.size, QUAD_STRIDE)
        ref = cdf(family, p, xs_sorted[idx])
        got = values[idx]
        tol = 1e-8 if family == "skew_t" else 1e-10
    else:
        ref = cdf(family, p, xs_sorted)
        got, tol = values, 1e-10
    err = np.max(np.abs(got - ref))
    if err > tol:
        errs.append(f"{family}: cdf off the independent reference by {err:.3g}")
    return errs


def _ks_pvalue(family, p, draws):
    if family == "skew_t":
        u = quad_cdf(p, draws)
        return stats.kstest(u, "uniform").pvalue
    return stats.kstest(draws, lambda v: cdf(family, p, v)).pvalue


def check_sample(family, p, draws, redraw):
    """KS test at p > 1e-3 against the independent CDF.

    A correct sampler fails one such test at random once in a thousand, and
    an acceptance pass makes hundreds, so a failure counts only when a second,
    independent draw from ``redraw()`` fails as well.
    """
    if _ks_pvalue(family, p, draws) > 1e-3:
        return []
    again = _ks_pvalue(family, p, redraw())
    if again > 1e-3:
        return []
    return [f"{family}: draws fail the KS test twice (p={again:.3g})"]


def octile_kurtosis(q):
    """((q7-q5) + (q3-q1)) / (q6-q2) from the seven octiles q1..q7."""
    return ((q[6] - q[4]) + (q[2] - q[0])) / (q[5] - q[1])


def reference_quantiles(family, p, levels):
    """Closed-form quantiles where the family has one, else None."""
    mu, sigma = float(p["mu"]), float(p["sigma"])
    z = special.ndtri(levels)
    if family == "normal":
        q = z
    elif family == "logistic":
        q = special.logit(levels)
    elif family == "t":
        q = stats.t.ppf(levels, float(p["nu"]))
    elif family == "sas_normal":
        q = np.sinh((np.arcsinh(z) - float(p["delta"])) / float(p["eta"]))
    elif family == "gh_normal":
        q = gh_inverse(z, p)
    elif family == "k_normal":
        q = k_inverse(z, p)
    elif family in ("twopiece_normal", "twopiece_t"):
        s_l, s_r, a = two_piece_scales(p)
        law = _base_law(family, p)
        left_mass = s_r / (s_l + s_r)
        lower = law.ppf(np.minimum(levels * s_l / a, 0.5)) / s_l
        upper = law.ppf(np.clip(0.5 + (levels - left_mass) * s_r / a, 0.5, 1.0)) / s_r
        q = np.where(levels < left_mass, lower, upper)
    else:
        return None
    return mu + sigma * q


def skew_sign(family, p):
    """Sign of the AG skewness implied by the parameters.

    delta > 0 skews right for the skew-symmetric and epsilon two-piece laws;
    the ISF two-piece skews right when delta > 1, and the sinh-arcsinh law
    Y = sinh((asinh X - delta) / eta) when delta < 0.
    """
    if family in ("normal", "logistic", "t"):
        return 0.0
    delta = float(p["delta"])
    if family == "sas_normal":
        return -np.sign(delta)
    if family in ("twopiece_normal", "twopiece_t") and p.get("scaling", "isf") == "isf":
        return np.sign(delta - 1.0)
    return np.sign(delta)


def check_shape_table(catalogue, table):
    """AG skewness zero or of the parameters' sign; octile kurtosis exact."""
    errs = []
    levels = np.arange(1, 8) / 8.0
    for fam, p in catalogue:
        row = table[fam]
        if "ag_skewness" in row:
            sign = skew_sign(fam, p)
            ag = row["ag_skewness"]
            if sign == 0.0 and abs(ag) > 1e-9:
                errs.append(f"{fam}: AG skewness {ag!r} of a symmetric law")
            elif sign != 0.0 and np.sign(ag) != sign:
                errs.append(f"{fam}: AG skewness {ag!r} has the wrong sign")
        ref_q = reference_quantiles(fam, p, levels)
        if ref_q is not None:
            ref = octile_kurtosis(ref_q)
            if abs(row["quantile_kurtosis"] - ref) > 1e-10:
                errs.append(f"{fam}: octile kurtosis {row['quantile_kurtosis']!r} "
                            f"!= {ref!r}")
    return errs
