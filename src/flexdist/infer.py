"""Likelihood fitting, information-criterion ranking, and calibrated tests.

Families are fit by maximum likelihood over an unconstrained
reparameterization (log sigma, a capped tanh of a skewing delta, log nu, and
for both two-piece scalings the log of the ISF side-scale ratio).  One kernel,
_Family.nll, serves every optimized family: it evaluates a batch of
parameter rows against standardized data rows by summing the family's
per-point log-density logf, the function its distribution's log_pdf calls
too, and chains logf's partials in z and in each natural shape through the
location-scale step and the coordinate maps' slopes into analytic scores
(the skew-t differences its one partial without a closed form).  One
batched quasi-Newton optimizer (BFGS with a backtracking line search) drives
the kernel: a fit runs all of its start points in one batch, fit_families
runs every family's batch, and a bootstrap test refits the observed sample
and its replicates, with all their starts, as rows of the same batches, the
observed sample first; where the optimizer fits the null, the alternative's
first start is the null's fit, at coordinate 0 of the shapes the null
lacks.  Where two cores are usable and the problems are many, this process
and a forked child draw the batches' halves from one work queue, with
results bit-identical to one process's.  Either way a call's batches form one
problem set, each family's problems padded to the widest family's
coordinates: in one process it runs as one loop, so that each pass pays its
bookkeeping once, and the queue's jobs are index sets of it.  Each run's
inverse-Hessian approximation starts from the diagonal of the inverse outer
product of the per-observation scores at its start point (the BHHH matrix,
Berndt, Hall, Hall & Hausman 1974): each coordinate's estimated sampling
variance, which puts the very differently scaled coordinates on one footing.
Where that outer product is not finite or its condition number exceeds
_OPG_COND, the run starts from the identity.  The seed is built in the
process that runs the problem, from the kernel's one pass over the start
points, whose row sums are also the run's start values and scores.  The
start points are structural (moment, quantile and frontier starts) and
deterministic, so fits draw no random numbers.  A fit runs in rounds, each
one problem set: a family's frontier chase runs in a second round, only on
the data rows where a bound on its frontier (a half-normal or half-t at a
sample extreme) says that it can beat the best fit of the first.  Two
families are fit exactly, without the optimizer: the normal family has a
closed form, and the two-piece normal family an exact profile-likelihood
path, where for fixed mu the optimal scale and asymmetry are closed-form,
so the fit reduces to a one-dimensional search over mu (a grid, then a
Newton refine), batched over the data rows.  A two-piece fit runs in ISF
coordinates under either scaling: the scaling sets only the cap on the
asymmetry and the form of the report.  nelder_mead, a thin adapter
over scipy's Nelder-Mead simplex, is a public utility; no fit uses it.

One table, _FAMILIES, describes every family, the eight fit by maximum
likelihood and gh_normal and k_normal.  An entry holds the family's shape
parameters in report order, each with the map between its optimizer
coordinate and its natural value (a clipped log box or a capped tanh), the
distribution constructor, the log-density and starts, the exact fitter where
there is one, and the family it nests.  distribution_for, FAMILY_ORDER,
NESTED_PAIRS, the generic decode, encode and boundary rule (the cap of the
shape named delta), and the CLI's family flags all read it.
"""

import contextlib
import math
import os
import pickle
import signal
import traceback
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.special import ndtri

from .base import (
    LOG_SQRT_TWO_PI,
    LocatedBase,
    LocationScale,
    NumericsError,
    _log_t_norm,
    logistic_base,
    logistic_logf,
    make_rng,
    normal_base,
    student_base,
    t_logf,
)
from .skewsym import SkewNormal, SkewT, skew_normal_logf, skew_t_logf
from .transform import GhTransform, KTransform, SasTransform, TransformParams, sas_logf
from .twopiece import EpsilonScaling, IsfScaling, TwoPieceParams, two_piece_logf

__all__ = [
    "FAMILY_ORDER",
    "NESTED_PAIRS",
    "FitConfig",
    "FitResult",
    "TestResult",
    "GhQuantileFit",
    "nelder_mead",
    "fit_mle",
    "fit_families",
    "fit_mle_penalized_skew_normal",
    "fit_gh_quantile",
    "log_likelihood",
    "distribution_for",
    "model_select",
    "lr_test",
    "SfaDemo",
    "sfa_composite_error_demo",
]

# the paper's central pair: the composed-error demo fits both families, and
# the penalized fit is the skew-normal's
SKEW_NORMAL_PAIR = ("normal", "skew_normal")

# slope at the origin of the capped tanh maps (see _TanhCap)
_MAP_SLOPE = 10.0
# distance to a cap within which a fitted shape sets boundary_flag
_FRONTIER_TOL = 1e-4

# t-value that puts delta within ~2e-5 of the +-200 cap; used as a dedicated
# restart so a likelihood that increases all the way to the frontier is found
# even when interior starts stall on the ridge.
_CHASE_T = 170.0
# relative margin, far above rounding, by which a family's frontier bound
# must fall below the best fit of its row's first round before the row
# skips the chase; at inf every chase runs
_FRONTIER_SLACK = 1e-9
# the half-t frontier bound's cells of log nu: the box's first split, and the
# most cells it evaluates for one data row before it lets the chase run; and
# the bins of log distance it pools a longer row into first
_FRONTIER_SPLIT = 8
_FRONTIER_CELLS = 256
_FRONTIER_BINS = 1024

# the line search's sufficient-decrease constant, and its cap on the max-norm
# (optimizer coordinates) of a trial step taken before any accepted step has
# scaled the BFGS matrix
_ARMIJO = 1e-4
_MAX_STEP = 1.0
# steps in a row that each lower the value by at most fatol before a fit
# stops on a flat ridge
_STALLS = 5

# cap on a two-piece normal profile's Newton steps; its ulp rules stop it in a few
_NEWTON_STEPS = 100

# the constants of the penalized skew-normal fit's penalty c1*ln(1 + c2*delta^2)
_PENALTY_C1 = 1.0
_PENALTY_C2 = 1.0 / 3.0

# cap on the row x point elements of one kernel evaluation and of one chunk
# of bootstrap replicates, so memory stays bounded at any n and B
_BATCH_ELEMENTS = 1 << 20

# problems x points of one _run_batches call from which its jobs run in two
# processes.  A split costs 3-20 ms (the fork and copy-on-write faults).
# Measured on 2 cores, every batch at or above this size ran in 0.53-0.77 of
# its serial time (bootstrap refits at n = 200, four-start fits at n = 10^4),
# while below it the split lost on most batches: t and skew_normal at
# n = 2 000 and 10^4, twopiece_t at n = 2 000, the n = 100 bootstrap refits
# of t, skew_normal and sas_normal, and the n = 200 single fits
_SPLIT_ELEMENTS = 1 << 15

# largest condition number of an outer product of scores that seeds BFGS;
# a run whose matrix is worse (or not finite) starts from the identity
_OPG_COND = 1e12


def _rows_per_batch(n: int) -> int:
    return max(1, _BATCH_ELEMENTS // n)


def _by_rows(f, n, *arrays):
    """f of the arrays' rows, at most _rows_per_batch(n) rows of n elements at
    a time; f returns a tuple of arrays, joined here along their rows."""
    per, m = _rows_per_batch(n), len(arrays[0])
    if m <= per:
        return f(*arrays)
    parts = [f(*(a[i : i + per] for a in arrays)) for i in range(0, m, per)]
    return tuple(map(np.concatenate, zip(*parts)))


# ---------------------------------------------------------------------------
# the simplex, a public utility that no fit runs


class SimplexResult(NamedTuple):
    x: np.ndarray
    fun: float
    iterations: int
    converged: bool


def nelder_mead(fn, x0, steps, xatol=1e-8, fatol=1e-8, maxiter=400):
    """Minimize fn from x0 with scipy's Nelder-Mead simplex.

    steps gives the per-coordinate offsets of the initial simplex.  NaN
    objective values are treated as +inf.  Convergence requires both the
    simplex spread (max-norm) and the value spread to fall below tolerance.
    """
    from scipy.optimize import minimize

    x0, steps = np.asarray(x0, dtype=float), np.asarray(steps, dtype=float)
    if steps.size != x0.size:
        raise ValueError(f"got {steps.size} steps for {x0.size} parameters")
    simplex = x0 + np.vstack((np.zeros(x0.size), np.diag(steps)))
    # scipy counts its start as iteration 1
    opts = {"initial_simplex": simplex, "xatol": xatol, "fatol": fatol, "maxiter": maxiter + 1}
    res = minimize(lambda v: np.where(np.isnan(f := fn(v)), np.inf, f), x0,
                   method="Nelder-Mead", options=opts)
    return SimplexResult(res.x, float(res.fun), int(res.nit) - 1, bool(res.success))


# ---------------------------------------------------------------------------
# the quasi-Newton optimizer every fit runs


def _batch_bfgs(fn, x0, start, xatol, fatol, maxiter):
    """BFGS with a backtracking line search over a batch of independent problems.

    x0 (m, d) holds each problem's start.  fn(T, rows) returns the values
    (k,) and scores (k, d) of parameter rows T (k, d) for problem indices
    rows, which come in ascending order; a non-finite value or score counts
    as +inf.  maxiter caps each problem's iterations: an int, or an (m,)
    array of per-problem caps, so that _run_batches can run several batches'
    problems, each under its own cap, as one set.  start = (h, seeded, f0,
    g0), as a _Batch's seed returns it, gives each problem's initial
    inverse-Hessian approximation h (m, d, d), as _opg_seed builds it, and
    fn's value f0 (m,) and score g0 (m, d) at x0, so that no start point is
    evaluated twice.  A seeded problem takes its first trial step at full
    length along -h g.  An unseeded one, whose h must be the identity, caps
    its first trial step at max-norm _MAX_STEP and scales the identity by
    the curvature its first accepted step sees, as every problem does after
    a restart from the identity: a problem restarts there when its search
    direction points uphill or its line search fails away from a wall.  A
    problem converges when an accepted step has max-norm at most xatol and
    lowers the value by at most fatol, when _STALLS steps in a row lower it
    by at most fatol (a flat ridge), or when neither its search direction
    nor steepest descent holds a lower value at steps down to xatol.
    Converged problems are frozen.  Each problem's arithmetic is its own, as
    long as fn computes each parameter row's value and score from that row
    alone, bit for bit (row sums, not einsum, which takes another path for a
    long row alone than in a batch): then a problem's result does not depend
    on its batch-mates, and _run_batches can run every family's problems in
    one loop, or split them between two processes.
    Returns per-problem best point, value, iteration count, convergence
    flag and kernel rows: the parameter rows fn evaluated for the problem,
    plus one for its start point, which the seed evaluated.  A counter added
    later must come back in this tuple too, or the queue's child would drop
    it.
    """

    def clean(f, g):
        bad = ~(np.isfinite(f) & np.isfinite(g).all(axis=1))
        return np.where(bad, np.inf, f), np.where(bad[:, None], 0.0, g)

    x = np.array(x0, dtype=float)
    m, d = x.shape
    eye = np.eye(d)
    h, seeded, f, g = start
    f, g = clean(f, g)
    h = np.array(h, dtype=float)  # inverse-Hessian approximations
    fresh = ~seeded  # h is the identity, not yet scaled by an accepted step
    conv = np.zeros(m, dtype=bool)
    iters = np.zeros(m, dtype=int)
    kernel = np.ones(m, dtype=int)
    active = np.isfinite(f) & (iters < maxiter)
    stalls = np.zeros(m, dtype=int)  # consecutive steps lowering f by <= fatol
    while active.any():
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
            ft[pending], gt[pending] = clean(*fn(xt[pending], r))
            kernel[r] += 1
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
        active &= iters < maxiter

    return x, f, iters, conv, kernel


def _splits(jobs: int, elements: int) -> bool:
    """Whether a call's BFGS jobs run in two processes: two usable cores,
    os.fork, at least two jobs, and problems x points, summed over the
    call, of at least _SPLIT_ELEMENTS."""
    affinity = getattr(os, "sched_getaffinity", None)
    return (
        jobs >= 2
        and elements >= _SPLIT_ELEMENTS
        and hasattr(os, "fork")
        and affinity is not None
        and len(affinity(0)) >= 2
    )


class _Batch(NamedTuple):
    """One batch of BFGS problems: its kernel fn, the problems' starts x0,
    their seed, and the stopping rule; maxiter is an int, or an (m,) array
    of per-problem caps.  seed(idx) returns _batch_bfgs's start for the
    problems idx, in ascending order: (h, seeded, f0, g0), built where the
    problems run."""

    fn: Callable
    x0: np.ndarray
    seed: Callable
    xatol: float
    fatol: float
    maxiter: "int | np.ndarray"

    def run(self, idx):
        """_batch_bfgs over the problems idx, in ascending order, of a
        batch with per-problem caps, seeded here."""
        fn = self.fn
        return _batch_bfgs(lambda t, rows: fn(t, idx[rows]), self.x0[idx], self.seed(idx),
                           self.xatol, self.fatol, self.maxiter[idx])


def _run_batches(batches: Sequence[_Batch], n: int) -> list:
    """Each batch's _batch_bfgs result, in order; n points per problem.

    The batches' problems form one problem set.  Each problem is padded to
    the widest batch's width with inert coordinates: start 0, identity seed
    and score 0, so a padded coordinate never moves and its entries off the
    diagonal of h stay 0.  Each problem keeps its batch's iteration cap, and
    the set's kernel and seed hand each batch's problems, which come in
    ascending order, to that batch's fn and seed on its own columns.  Where
    _splits allows it, the set runs as one work queue in two processes
    (_queue): a job is one parity half of one batch's problems, the
    even-numbered then the odd-numbered, in batch order, which seeds its
    own problems, and its results land in the set's arrays at its problems'
    places.  Otherwise the whole set is seeded and runs in one _batch_bfgs
    loop in this process, so that a pass of the loop pays its bookkeeping
    once for all the families of a fit_families call.  Either way this
    process evaluates no kernel before the jobs start.  The padding adds
    only zeros to the optimizer's row sums, and a problem's arithmetic is
    its own, so every result is bit-identical to its batch's own run.  The
    batches share one pair of tolerances, as the batches of one FitConfig
    do.
    """
    if not batches:
        return []
    ((xatol, fatol),) = {b[3:5] for b in batches}
    sizes = [len(b.x0) for b in batches]
    widths = [b.x0.shape[1] for b in batches]
    starts = np.cumsum([0] + sizes)
    m, d = starts[-1], max(widths)
    x0 = np.zeros((m, d))
    for b, k, lo, hi in zip(batches, widths, starts, starts[1:]):
        x0[lo:hi, :k] = b.x0

    def parts(rows):
        # each batch with its width, its rows' places in rows, and their
        # indices within the batch
        cuts = np.searchsorted(rows, starts)
        return [(b, k, slice(i, j), rows[i:j] - lo)
                for b, k, lo, i, j in zip(batches, widths, starts, cuts, cuts[1:]) if i < j]

    def fn(t, rows):
        f, g = np.empty(len(rows)), np.zeros((len(rows), d))
        for b, k, at, mine in parts(rows):
            f[at], g[at, :k] = b.fn(t[at, :k], mine)
        return f, g

    def seed(idx):
        p = len(idx)
        h, seeded = np.tile(np.eye(d), (p, 1, 1)), np.empty(p, dtype=bool)
        f, g = np.empty(p), np.zeros((p, d))
        for b, k, at, mine in parts(idx):
            h[at, :k, :k], seeded[at], f[at], g[at, :k] = b.seed(mine)
        return h, seeded, f, g

    problems = _Batch(fn, x0, seed, xatol, fatol, np.repeat([b.maxiter for b in batches], sizes))
    jobs = [np.arange(lo + start, hi, 2)
            for lo, hi in zip(starts, starts[1:]) for start in (0, 1) if lo + start < hi]
    if _splits(len(jobs), n * m):
        done = _queue([partial(problems.run, idx) for idx in jobs])
        result = [np.empty((m,) + a.shape[1:], dtype=a.dtype) for a in done[0]]
        for idx, part in zip(jobs, done):
            for out, a in zip(result, part):
                out[idx] = a
    else:
        result = problems.run(np.arange(m))
    x, *rest = result
    return [(x[lo:hi, :k], *(a[lo:hi] for a in rest))
            for k, lo, hi in zip(widths, starts, starts[1:])]


def _queue(jobs: Sequence[Callable]) -> list:
    """The results of the argument-free callables jobs, run in this process
    and a forked child that draw them from one queue.

    The queue is a pipe holding one byte per job index, written whole and
    closed before the fork; each process claims its next job with a 1-byte
    read, which no other read can split, until the pipe is empty, so each
    job runs exactly once and both processes stay busy until the last job
    (Graham's list scheduling).  A queue holds at most 255 jobs.  The child
    sends its results back through a second pipe, pickled whole, so a failed
    pickle sends nothing.  The jobs may call BLAS and LAPACK, as the BFGS
    seeds' np.linalg.cond and inv do: numpy's bundled OpenBLAS stops its
    thread pool at fork (pthread_atfork), so the child inherits no pool
    thread's lock, and stacks of (k, d, d) matrices with d <= 4 never reach
    its threaded paths.  The child ends with os._exit, so it never flushes
    inherited stdio or runs atexit handlers, and never outlives the call: it
    is reaped on return, and killed and reaped first where this process
    raises.  An exception in the child is raised here, with the child's
    traceback as its cause; a child that sends nothing raises
    ChildProcessError.
    """
    if len(jobs) > 255:
        raise ValueError(f"a work queue holds at most 255 jobs, got {len(jobs)}")
    here = _cpu_now()
    claim, post = os.pipe()
    os.write(post, bytes(range(len(jobs))))
    os.close(post)
    read, write = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns on fork in a process with other OS threads, as
            # numpy's BLAS pool makes every process here; OpenBLAS stops that
            # pool at fork, so the child touches no lock its threads may hold
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
            )
            pid = os.fork()
    except BaseException:
        for fd in (claim, read, write):
            os.close(fd)
        raise
    if pid == 0:
        try:
            os.close(read)
            if here is not None:
                # a kernel that does not balance load across CPUs (a cpuset
                # with sched_load_balance off) can leave the child on this
                # process's CPU, where the two would take turns
                with contextlib.suppress(OSError):
                    os.sched_setaffinity(0, os.sched_getaffinity(0) - {here})
            try:
                out = (_drain(claim, jobs), None)
            except BaseException as exc:
                out = (exc, RuntimeError("in the child process:\n" + traceback.format_exc()))
            data = pickle.dumps(out)  # whole, so a failed pickle sends nothing
            with open(write, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write)
    got = b""
    try:
        with open(read, "rb") as pipe:
            mine = _drain(claim, jobs)
            got = pipe.read()
    finally:
        os.close(claim)
        if not got:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    if not got:
        raise ChildProcessError("the BFGS child process ended without a result")
    theirs, cause = pickle.loads(got)
    if cause is not None:
        raise theirs from cause
    done = {**mine, **theirs}
    return [done[j] for j in range(len(jobs))]


def _drain(claim: int, jobs: Sequence[Callable]) -> dict:
    """Run the jobs whose indices this process reads from the queue claim,
    one byte at a time until it is empty; returns {index: result}."""
    done = {}
    while job := os.read(claim, 1):
        done[job[0]] = jobs[job[0]]()
    return done


def _cpu_now() -> Optional[int]:
    """The CPU the calling thread last ran on, where /proc tells it."""
    try:
        with open("/proc/thread-self/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _opg_seed(spec, w, t, rows, cfg):
    """BFGS seeds from the outer product of per-observation scores (BHHH).

    Parameter row i of t (p, d) belongs to data row rows[i] of w (m, n).
    Each problem's scores S (n, d), one row per data point, are the partials
    in t of log sigma - logf(z) point by point (the penalty belongs to no
    point), from one pass of spec.terms over at most _BATCH_ELEMENTS points
    at a time; spec.sums of the same pass gives spec.nll's values f and
    scores g at t, bit for bit.  Returns (h, seeded, f, g): h (p, d, d)
    holds the diagonal of (S'S)^-1, each coordinate's estimated sampling
    variance, where seeded, and the identity where S'S is not finite or its
    condition number exceeds _OPG_COND.

    Only the diagonal is kept.  Far from the optimum the full (S'S)^-1 is a
    poor Hessian: on some samples its steps run onto the skew-normal's
    stationary null point, or past the clip of log nu into the flat region
    beyond it, and the fit ends at a worse local optimum.
    """
    p, d = t.shape

    def chunk(ti, ri):
        terms = spec.terms(ti, w[ri], cfg)
        z, _, dz, parts, _, slopes = terms
        score = np.empty(z.shape + (d,))
        score[..., 0], score[..., 1] = np.exp(-ti[:, 1:2]) * dz, 1.0 + dz * z
        for s, part, slope in zip(spec.shapes, parts, slopes):
            score[..., s.col] = -part * slope[:, None]
        return np.einsum("kni,knj->kij", score, score), *spec.sums(ti, terms)

    opg, f, g = _by_rows(chunk, w.shape[1], t, rows)
    seeded = np.isfinite(opg).all(axis=(1, 2))
    seeded[seeded] = np.linalg.cond(opg[seeded]) <= _OPG_COND
    h = np.tile(np.eye(d), (p, 1, 1))
    h[seeded] *= np.diagonal(np.linalg.inv(opg[seeded]), axis1=1, axis2=2)[:, None, :]
    return h, seeded, f, g


# ---------------------------------------------------------------------------
# coordinate maps between the optimizer's t and a natural shape parameter.
# decode takes a float or an array and returns the value with its slope in t,
# which the scores chain through; encode inverts it inside the box; at_cap
# says whether a fitted value lies on the frontier that boundary_flag reports.


@dataclass(frozen=True)
class _LogBox:
    """v = exp(t) clipped to the box [lo, hi]; outside it the slope is zero."""

    lo: float
    hi: float
    log_lo: float = field(init=False, repr=False)
    log_hi: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "log_lo", math.log(self.lo))
        object.__setattr__(self, "log_hi", math.log(self.hi))

    def decode(self, t):
        # np.clip's bits, without its Python wrapper on the kernels' hot path
        v = np.exp(np.minimum(np.maximum(t, self.log_lo), self.log_hi))
        return v, np.where((t >= self.log_lo) & (t <= self.log_hi), v, 0.0)

    def encode(self, v):
        return np.log(np.clip(v, self.lo, self.hi))

    def at_cap(self, v) -> bool:
        # for a box symmetric on the log scale (lo = 1/hi), compared there,
        # where exp(log(cap)) may land an ulp inside the cap
        return abs(math.log(v)) >= self.log_hi - _FRONTIER_TOL


@dataclass(frozen=True)
class _TanhCap:
    """delta = cap * tanh(_MAP_SLOPE * t / cap): unbounded in t, bounded by cap."""

    cap: float

    def decode(self, t):
        th = np.tanh(_MAP_SLOPE * t / self.cap)
        return self.cap * th, _MAP_SLOPE * (1.0 - th * th)

    def encode(self, delta):
        u = np.clip(delta / self.cap, -1.0 + 1e-15, 1.0 - 1e-15)
        return self.cap / _MAP_SLOPE * np.arctanh(u)

    def at_cap(self, delta) -> bool:
        return self.cap - abs(delta) <= _FRONTIER_TOL


_NU = _LogBox(0.5, 200.0)
_ETA = _LogBox(1e-3, 1e3)
_SKEW = _TanhCap(200.0)
_SAS = _TanhCap(50.0)
# Both two-piece scalings are fit in one coordinate, t = log of the ISF
# side-scale ratio delta_ISF, and differ only in its box.  Epsilon's delta is
# tanh t and its sigma sigma_ISF cosh t, so its cap c on |delta| is the ratio
# box [sqrt((1 - c)/(1 + c)), sqrt((1 + c)/(1 - c))], |t| <= artanh(c).
_ISF = _LogBox(1e-4, 1e4)
_EPSILON_CAP = 1.0 - 1e-6
_EPSILON = _LogBox(math.sqrt((1.0 - _EPSILON_CAP) / (1.0 + _EPSILON_CAP)),
                   math.sqrt((1.0 + _EPSILON_CAP) / (1.0 - _EPSILON_CAP)))
_ASYMMETRY = {"isf": _ISF, "epsilon": _EPSILON}


def _sigma_of(ls):
    return np.exp(np.clip(ls, -200.0, 200.0))


# ---------------------------------------------------------------------------
# the negative log-likelihood of every optimized family, summed from its
# per-point log-density logf: parameter rows t (k, d) in optimizer
# coordinates against standardized data rows w (k, n)


def _skew_normal_penalty(delta):
    """The penalized skew-normal fit's c1 ln(1 + c2 delta^2), and its partial in delta."""
    c2d2 = _PENALTY_C2 * delta * delta
    return _PENALTY_C1 * np.log1p(c2d2), (2.0 * _PENALTY_C1 * _PENALTY_C2 * delta / (1.0 + c2d2),)


# ---------------------------------------------------------------------------
# structural start points for standardized data rows w (m, n): each entry is
# an (m, d) array of points, or an (m, j, d) stack whose first point is run
# and whose other points bound that run's result from above.  The skewed
# starts take the rows' third moments g1 = mean(w^3), computed once per list.


def _points(m: int, *cols):
    return np.column_stack([np.broadcast_to(np.asarray(c, dtype=float), (m,)) for c in cols])


def _third_moment(w):
    return np.mean(w * w * w, axis=1)


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
    return -s0 * md, np.log(s0), _SKEW.encode(d0)


def _chase_start(w, sign):
    """mu, log sigma and t of delta at the half-normal limit the ridge runs to."""
    mu_c = np.where(sign > 0.0, w.min(axis=1), w.max(axis=1))
    s_c = np.sqrt(np.mean((w - mu_c[:, None]) ** 2, axis=1))
    return mu_c, np.log(np.maximum(s_c, 1e-12)), sign * _CHASE_T


def _half_t_profile(ly, count, kappa):
    """Bounds on M = max over r of g(r) = -n r - kappa sum log(1 + y^2 e^-2r),
    for rows of log distances ly (k, g), each value counted count (k, g)
    times, n times in all, and kappa (k,).

    g is concave in r.  With p = 1 / (1 + e^2r / y^2), its slope -n + 2
    kappa sum p falls from -n + 2 kappa n+ to -n, n+ the count of y > 0, so
    M is finite only where c = 2 kappa n+ / n exceeds 1.  The root lies in
    [log min y + log(c - 1) / 2, log max y + log(c) / 2], over y > 0, where a
    safeguarded Newton solve (a bisection step wherever Newton leaves the
    bracket) finds it, started at the root of the small-y form of the slope.
    It stops once the slope is within 1e-13 n of 0, or a step within four
    ulps.  Returns (lower, upper, r): g at the last iterate r, and that plus
    |slope| times the bracket's width, which concavity makes an upper bound;
    both are +inf, and r NaN, where c <= 1.
    """
    n = count.sum(axis=1)
    pos = (ly > -np.inf) & (count > 0)
    c = 2.0 * kappa * np.where(pos, count, 0).sum(axis=1) / n
    lower, upper, at = np.full(len(c), np.inf), np.full(len(c), np.inf), np.full(len(c), np.nan)
    fin = np.flatnonzero(c > 1.0)
    if not fin.size:
        return lower, upper, at
    ly, count, kappa, c, n, pos = ly[fin], count[fin], kappa[fin], c[fin], n[fin], pos[fin]
    top = np.max(np.where(pos, ly, -np.inf), axis=1)
    lo = np.min(np.where(pos, ly, np.inf), axis=1) + 0.5 * np.log(c - 1.0)
    hi = top + 0.5 * np.log(c)
    small = np.log((count * np.exp(2.0 * (ly - top[:, None]))).sum(axis=1))
    r = np.clip(0.5 * (np.log(2.0 * kappa / n) + small) + top, lo, hi)
    floor, done = np.maximum(count, 1), np.zeros(fin.size, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        p = count / (1.0 + np.exp(2.0 * (r[:, None] - ly)))
        slope = 2.0 * kappa * p.sum(axis=1) - n
        curv = 4.0 * kappa * (p - p * p / floor).sum(axis=1)
        lo, hi = np.where(slope > 0.0, r, lo), np.where(slope < 0.0, r, hi)
        step = r + slope / curv
        step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
        done |= (np.abs(slope) <= 1e-13 * n) | (np.abs(step - r) <= 4.0 * np.spacing(np.abs(r)))
        if done.all():
            break
        r = np.where(done, r, step)
    lower[fin], slope = _half_t_g(ly, count, kappa, r)
    upper[fin], at[fin] = lower[fin] + np.abs(slope) * (hi - lo), r
    return lower, upper, at


def _half_t_g(ly, count, kappa, r):
    """_half_t_profile's g at each row's r, and its slope."""
    n = count.sum(axis=1)
    x = 2.0 * (ly - r[:, None])
    # log(1 + e^x) and 1 / (1 + e^-x), from the exp of -|x| alone
    e = np.exp(-np.abs(x))
    slope = 2.0 * kappa * (count * np.where(x > 0.0, 1.0, e) / (1.0 + e)).sum(axis=1) - n
    return -n * r - kappa * (count * (np.maximum(x, 0.0) + np.log1p(e))).sum(axis=1), slope


def _pooled(ly):
    """Rows of log distances ly (m, n) pooled into _FRONTIER_BINS bins of
    equal width in log y, and a bin of the zeros: each bin's mean log y and
    count, (m, _FRONTIER_BINS + 1) each.  The bins span each row's positive
    log y, or its top 80 where they spread wider; a bin lower down takes
    everything below.  In _half_t_profile, each point's term of g is concave
    in its log y, so by Jensen's inequality the pooled rows' g lies above
    the rows' own at every r, and so do their bounds."""
    m, n = ly.shape
    g = _FRONTIER_BINS
    pos = ly > -np.inf
    top = np.max(ly, axis=1, keepdims=True)
    bottom = np.maximum(np.min(np.where(pos, ly, np.inf), axis=1, keepdims=True), top - 80.0)
    width = np.maximum(top - bottom, 1e-300) / g
    at = np.where(pos, 1 + np.clip(((np.where(pos, ly, bottom) - bottom) / width).astype(int),
                                   0, g - 1), 0)
    at += (g + 1) * np.arange(m)[:, None]
    count = np.bincount(at.ravel(), minlength=m * (g + 1)).reshape(m, g + 1)
    total = np.bincount(at.ravel(), np.where(pos, ly, 0.0).ravel(), minlength=m * (g + 1))
    mean = total.reshape(m, g + 1) / np.maximum(count, 1)
    mean[:, 0] = -np.inf
    return mean, count


@np.errstate(divide="ignore", over="ignore")  # log 0 at the extreme, exp far below the scale
def _half_t_frontier(y, target):
    """Bounds on each data row's half-t frontier, the supremum over sigma > 0
    and nu in _NU's box of n log 2 + sum log t_nu(y / sigma) - n log sigma,
    for rows of distances y (m, n) >= 0 from the chased extreme.

    Write C for _log_t_norm, which increases on the box.  On a cell [a, b]
    of nu, log t_nu(x) <= C(b) - (a + 1) / 2 log(1 + x^2 / b), and, since nu
    log(1 + q / nu) increases in nu, log t_nu(x) <= C(b) - a (b + 1) / (2 b)
    log(1 + x^2 / a).  Summed over the points, each bound's supremum over
    sigma is n log 2 + n C(b) + n/2 log(beta) + M(kappa) with (kappa, beta)
    its coefficient and divisor (_half_t_profile).  A cell's bound is the
    first, or the smaller of the two where the first does not fall below
    the target.  The first solve's lower value with the cell's a in place of
    b is the exact profile at nu = a, a witness that the frontier reaches
    it.  Rows of more than _FRONTIER_BINS points are bounded from
    their _pooled bins, whose g lies above the points' own: where a pooled
    witness reaches the target, the points' own g at its r is the witness.

    Cells start as _FRONTIER_SPLIT equal parts of the box, and halve until,
    for each row, every cell bounds below its target (the frontier cannot
    reach it), a witness reaches it, or the next split would pass
    _FRONTIER_CELLS cells.  Returns (upper, witness): the largest bound of
    the row's last cells, an upper bound on its frontier, and its best
    witness, a lower one.
    """
    ly = np.log(y)
    ones = np.ones(ly.shape)
    exact = y.shape[1] <= _FRONTIER_BINS
    bins, count = (ly, ones) if exact else _pooled(ly)
    m, n = ly.shape
    head = n * math.log(2.0)
    upper, witness, spent = np.full(m, -np.inf), np.full(m, -np.inf), np.zeros(m, dtype=int)
    edges = np.linspace(_NU.log_lo, _NU.log_hi, _FRONTIER_SPLIT + 1)
    owner = np.repeat(np.arange(m), _FRONTIER_SPLIT)
    lo, hi = np.tile(edges[:-1], m), np.tile(edges[1:], m)

    def profile(rows, kappa):
        return _half_t_profile(bins[rows], count[rows], kappa)

    while owner.size:
        a, b = np.exp(lo), np.exp(hi)
        kappa = 0.5 * (a + 1.0)
        low, up, at = _by_rows(profile, bins.shape[1], owner, kappa)
        bound = head + n * _log_t_norm(b) + 0.5 * n * hi + up
        high = np.flatnonzero(~(bound < target[owner]))
        if high.size:
            _, up, _ = _by_rows(profile, bins.shape[1], owner[high],
                                0.5 * a[high] * (b[high] + 1.0) / b[high])
            bound[high] = np.minimum(bound[high], head + n * _log_t_norm(b[high])
                                     + 0.5 * n * lo[high] + up)
        reach = head + n * _log_t_norm(a) + 0.5 * n * lo + low
        if not exact:
            ask = np.flatnonzero((reach >= target[owner]) & (reach < np.inf))
            reach[reach < np.inf] = -np.inf
            if ask.size:
                own, _ = _by_rows(lambda rows, *args: _half_t_g(ly[rows], ones[rows], *args), n,
                                  owner[ask], kappa[ask], at[ask])
                reach[ask] = head + n * _log_t_norm(a[ask]) + 0.5 * n * lo[ask] + own
        np.maximum.at(witness, owner, reach)
        spent += np.bincount(owner, minlength=m)
        above = ~(bound < target[owner])
        split = spent + 2 * np.bincount(owner[above], minlength=m)
        done = (witness >= target) | (split > _FRONTIER_CELLS)
        drop = ~above | done[owner]
        np.maximum.at(upper, owner[drop], bound[drop])
        owner, lo, hi = owner[~drop], lo[~drop], hi[~drop]
        mid = 0.5 * (lo + hi)
        owner = np.repeat(owner, 2)
        lo, hi = np.stack((lo, mid), 1).ravel(), np.stack((mid, hi), 1).ravel()
    return upper, witness


@np.errstate(divide="ignore")  # log 0 where every point sits at the extreme
def _half_normal_frontier(y, target):
    """_half_t_frontier's (upper, witness) for the half-normal, sup over sigma
    of n log 2 + sum log phi(y / sigma) - n log sigma: n log 2 - n/2 log(2 pi
    mean y^2) - n/2, exact, so both are that, whatever the target."""
    n = y.shape[1]
    sup = n * (math.log(2.0) - LOG_SQRT_TWO_PI - 0.5) - 0.5 * n * np.log(np.mean(y * y, axis=1))
    return sup, sup


def _frontier_can_win(bound, w, e, loglik):
    """Whether the frontier at each data row's chased extreme e can beat
    loglik, the best log-likelihood of the row's first round: False only
    where bound, a family's chase, puts it below loglik by more than
    _FRONTIER_SLACK, relative.  Every skew-normal at delta -> +-inf lies
    below the half-normal frontier, and every skew-t there and every
    two-piece t with all the data on one side of a mu at or beyond e below
    the half-t one (_half_normal_frontier, _half_t_frontier)."""
    target = loglik - _FRONTIER_SLACK * np.abs(loglik)
    out = np.ones(len(e), dtype=bool)
    ask = np.flatnonzero(target > -np.inf)
    if ask.size:
        upper, _ = bound(np.abs(w[ask] - e[ask, None]), target[ask])
        out[ask] = ~(upper < target[ask])
    return out


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
    derivative-based run would never leave it.  The chase starts at the
    half-normal limit the ridge runs to, at the extreme the skewness points
    away from.  The penalized fit shares the chase and its bound: its penalty
    only lowers the frontier further.
    """
    m = w.shape[0]
    g1 = _third_moment(w)
    moment = _points(m, *_skew_normal_moment_start(g1))
    chase = _points(m, *_chase_start(w, _skewness_sign(g1)))
    return [np.stack((moment, np.zeros((m, 3))), axis=1), chase]


def _starts_skew_t(w, cfg):
    """The symmetric start, two moment starts at nu = 5 and 2, and, last,
    the frontier chase at nu = 5.

    The moment starts take the skew-normal's method-of-moments point, and
    the chase the skew-normal's chase point.
    """
    m = w.shape[0]
    g1 = _third_moment(w)
    m0, ls0, td0 = _skew_normal_moment_start(g1)
    mu_c, ls_c, td_c = _chase_start(w, _skewness_sign(g1))
    return [
        _points(m, 0.0, 0.0, math.log(5.0), 0.0),
        _points(m, m0, ls0, math.log(5.0), td0),
        _points(m, m0, ls0, math.log(2.0), td0),
        _points(m, mu_c, ls_c, math.log(5.0), td_c),
    ]


def _starts_sas(w, cfg):
    m = w.shape[0]
    sign = _skewness_sign(_third_moment(w))
    return [
        np.zeros((m, 4)),
        _points(m, 0.0, 0.0, _SAS.encode(-0.7 * sign), 0.0),
        _points(
            m,
            np.median(w, axis=1),
            math.log(0.8),
            _SAS.encode(-0.4 * sign),
            math.log(0.7),
        ),
    ]


def _starts_two_piece(w, cfg, with_nu):
    """Three quantile starts, then the frontier chase.

    The chase puts mu at the sample extreme the skewness points away from
    and the asymmetry at its cap, so that the wide side holds all the data:
    the frontier optimum of samples like the all-positive one lies there.
    The two-piece normal's exact profile takes no start.
    """
    m = w.shape[0]
    box = _ASYMMETRY[cfg.scaling]
    nu = (math.log(5.0),) if with_nu else ()
    out = []
    for q in (0.25, 0.5, 0.75):
        mu0 = np.quantile(w, q, axis=1)
        p_left = np.clip(np.mean(w < mu0[:, None], axis=1), 0.05, 0.95)
        out.append(_points(m, mu0, 0.0, *nu, box.encode(np.sqrt(1.0 / p_left - 1.0))))
    sign = _skewness_sign(_third_moment(w))
    mu_c, ls_c, _ = _chase_start(w, sign)
    # log of the wide side's scale over sigma at the cap
    wide = box.log_hi
    out.append(_points(m, mu_c, ls_c - wide, *nu, sign * wide))
    return out


# ---------------------------------------------------------------------------
# public records


# the two-piece scalings, by the name FitConfig.scaling and reports use
_SCALINGS = {"isf": IsfScaling, "epsilon": EpsilonScaling}


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings shared by fit_mle and lr_test.

    restarts caps the number of optimizer starts taken from the front of
    the family's structural start list, whose last is a frontier chase where
    the family has one; there are no random starts, so a fit is a
    deterministic function of its data and config.  A run stops when a
    step's max-norm is at most xatol and it lowers the negative
    log-likelihood by at most fatol, when several steps in a row each lower
    it by at most fatol, or after maxiter iterations (default 400 per free
    parameter).  restarts and maxiter are integers of at least 1, and the
    tolerances are positive and finite.  scaling, isf or epsilon, picks only
    the cap on the two-piece asymmetry and the form of the reported sigma
    and delta: both scalings fit the same laws in the same ISF coordinates.
    """

    restarts: int = 5
    xatol: float = 1e-8
    fatol: float = 1e-8
    maxiter: Optional[int] = None
    scaling: str = "isf"

    def __post_init__(self):
        # a bool is an int to Python, and a NaN cap would stop every run at its start
        for name, v in (("restarts", self.restarts),
                        ("maxiter", 1 if self.maxiter is None else self.maxiter)):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {v!r}")
            if v < 1:
                raise ValueError(f"{name} must be at least 1")
        for name, v in (("xatol", self.xatol), ("fatol", self.fatol)):
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite")
        if self.scaling not in _SCALINGS:
            raise ValueError(f"unknown scaling {self.scaling!r}")


@dataclass(frozen=True)
class FitResult:
    """One fitted family.

    iterations counts optimizer iterations: quasi-Newton steps summed over
    the fit's starts, the Newton steps of the two-piece normal profile's
    refine, and 0 for the normal family's closed form.  A frontier chase
    that its family's frontier bound rules out runs no step and adds none;
    the other fields come from the starts that ran.
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
# the g-and-h letter-value fit


def fit_gh_quantile(data) -> GhQuantileFit:
    """Letter-value estimates of the g-and-h parameters.

    g comes from the median of depth-wise log half-spread ratios; h and sigma
    come from regressing the log corrected full spreads on z_p^2 / 2.  The
    family's density needs a numeric solve of H per point, which this fit,
    built on quantiles alone, does without.
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
# exact fits of every data row, without the optimizer


class _RowFits(NamedTuple):
    t: np.ndarray  # (m, d) best point per data row, optimizer coordinates
    nll: np.ndarray  # (m,) its negative log-likelihood in standardized units
    iterations: np.ndarray  # (m,) optimizer iterations summed over the row's starts
    converged: np.ndarray  # (m,) convergence flag of the best start
    kernel_rows: np.ndarray  # (m,) kernel rows summed over the row's starts (_batch_bfgs)


def _normal_rows(w: np.ndarray, cfg: FitConfig) -> _RowFits:
    """The normal family's closed form."""
    m, n = w.shape
    mu = w.mean(axis=1)
    ls = 0.5 * np.log(np.mean((w - mu[:, None]) ** 2, axis=1))
    nll = n * (LOG_SQRT_TWO_PI + ls + 0.5)
    none = np.zeros(m, dtype=int)
    return _RowFits(np.column_stack((mu, ls)), nll, none, np.ones(m, dtype=bool), none)


def _two_piece_rows(w: np.ndarray, cfg: FitConfig) -> _RowFits:
    """_two_piece_profile of every data row, at most _BATCH_ELEMENTS grid points at once."""
    return _RowFits(*_by_rows(partial(_two_piece_profile, cfg=cfg), 2 * w.shape[1], w))


def _two_piece_profile(w: np.ndarray, cfg: FitConfig) -> _RowFits:
    """Exact two-piece normal MLE of every data row via the profile likelihood in mu.

    For fixed mu, with L and R the sums of squared deviations of the points
    below and above mu, the inverse-scale-factor optimum is delta = (R/L)^(1/6),
    clipped to the box of cfg.scaling's cap, and sigma^2 = (delta^2 L + R /
    delta^2) / n, both closed form.  All rows at once, the profile is
    maximized over each row's candidate grid (its data points, their
    midpoints and its mean), then refined between the best grid point's
    neighbours, on the side where the profile rises from it.  No data point
    lies inside that bracket, so L and R are quadratics in mu there, and the
    profile's slope has the sign of -(delta^2 L' + R' / delta^2): with delta
    inside its box this is the cube-root equation L' R^(2/3) + R' L^(2/3) = 0
    over (L R)^(1/3), and with delta clipped it is linear in mu.  A
    safeguarded Newton solve (a bisection step wherever Newton leaves the
    bracket or the slope's slope is not positive) finds the root, with L and
    R expanded about the grid point, so that a peak a few ulps from it is
    resolved.  It stops on ulp rules: once the equation is within four ulps
    of its terms' sizes, or a step or the bracket within four ulps of the
    bracket's larger end.  Each row keeps the better of the grid point and
    the root.  A row's iterations are its Newton steps.
    """
    m, n = w.shape
    r, j = np.arange(m), np.arange(n)
    box = _ASYMMETRY[cfg.scaling]
    xs = np.sort(w, axis=1)
    # sums of the first k points of each row (p) and of all but its first k
    # (q), each accumulated from its own end of the sample
    p1, p2 = (np.pad(np.cumsum(v, axis=1), ((0, 0), (1, 0))) for v in (xs, xs * xs))
    q1, q2 = (np.pad(np.cumsum(v[:, ::-1], axis=1)[:, ::-1], ((0, 0), (0, 1)))
              for v in (xs, xs * xs))

    def sums(below, above):
        # count, sum and sum of squares of the first `below` (m, p) points of
        # each row, those below mu, and of all but its first `above`, those
        # above mu: a point equal to mu adds nothing and lies on neither side,
        # so an empty side sums to exactly 0 at either end of the sample
        rows = r[:, None]
        return np.array([[below, n - above], [p1[rows, below], q1[rows, above]],
                         [p2[rows, below], q2[rows, above]]])

    def squares_at(mu, count, total, squares):
        # L and R at mu
        return squares - 2.0 * mu * total + count * mu * mu

    def profile(sides):
        # log-likelihood, delta and sigma^2 of L and R; NaN where both are 0
        left, right = np.maximum(sides, 0.0)
        delta = np.minimum(np.maximum((right / left) ** (1.0 / 6.0), box.lo), box.hi)
        d2 = delta * delta
        var = (d2 * left + right / d2) / n
        ll = n * np.log(2.0 / (delta + 1.0 / delta)) - 0.5 * n * np.log(var)
        return ll - (0.5 * n + n * LOG_SQRT_TWO_PI), delta, var

    def equation(h, value, tilt, count):
        # L and R at best + h from their values and slopes at best, and
        # delta^2 L' + R' / delta^2 there, with its slope in h and its rounding
        sides = value + h * (tilt + count * h)
        left, right = np.maximum(sides, 0.0)
        dl, dr = tilt + 2.0 * count * h
        root = (right / left) ** (1.0 / 6.0)
        d2 = np.minimum(np.maximum(root, box.lo), box.hi) ** 2
        curv = 2.0 * (count[0] * d2 + count[1] / d2) + np.where(
            (root > box.lo) & (root < box.hi), (dl * d2 - dr / d2) * (dr / right - dl / left) / 3.0, 0.0)
        return sides, d2 * dl + dr / d2, curv, 4.0 * np.spacing(np.abs(d2 * dl) + np.abs(dr / d2))

    # the grid, and each grid point's counts of data points below it and at
    # or below it: for a data point the start and the end of its run of ties
    mids = 0.5 * (xs[:, :-1] + xs[:, 1:])
    grid = np.concatenate((xs, mids, np.mean(xs, axis=1, keepdims=True)), axis=1)
    first = np.maximum.accumulate(np.where(np.diff(xs, axis=1, prepend=-np.inf) > 0, j, 0), axis=1)
    last = np.minimum.accumulate(
        np.where(np.diff(xs, axis=1, append=np.inf) > 0, j + 1, n)[:, ::-1], axis=1)[:, ::-1]
    below = np.concatenate((first, np.where(mids > xs[:, :-1], j[1:], first[:, :-1]),
                            np.count_nonzero(xs < grid[:, -1:], axis=1, keepdims=True)), axis=1)
    upto = np.concatenate((last, np.where(mids < xs[:, 1:], j[1:], last[:, 1:]),
                           np.count_nonzero(xs <= grid[:, -1:], axis=1, keepdims=True)), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ll, delta, var = profile(squares_at(grid, *sums(below, upto)))
        i = np.argmax(ll, axis=1)
        best, ll, delta, var = grid[r, i], ll[r, i], delta[r, i], var[r, i]
        lo = np.max(np.where(grid < best[:, None], grid, xs[:, :1]), axis=1)
        hi = np.min(np.where(grid > best[:, None], grid, xs[:, -1:]), axis=1)
        # no data point lies strictly between best and either neighbour, so
        # below best the points below mu are the first below[r, i], and above
        # it the first upto[r, i]: each side's L, R, slopes and counts at best
        k = np.column_stack((below[r, i], upto[r, i]))
        count, total, squares = sums(k, k)
        at = best[:, None]
        left, right = np.moveaxis(np.array([squares_at(at, count, total, squares),
                                            2.0 * (count * at - total), count]), -1, 0)
        rise = equation(0.0, *right)[1] < 0.0
        rows = np.flatnonzero(rise | (equation(0.0, *left)[1] > 0.0))
        sides = np.where(rise, right, left)
        a, b = np.where(rise, 0.0, lo - best), np.where(rise, hi - best, 0.0)
        tol = 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        h, steps = np.zeros(m), np.zeros(m, dtype=int)
        _, psi, curv, _ = equation(0.0, *sides[..., rows])
        while rows.size:
            step = h[rows] - psi / curv
            newton = (curv > 0.0) & (step > a[rows]) & (step < b[rows])
            step = np.where(newton, step, 0.5 * (a[rows] + b[rows]))
            moved = np.abs(step - h[rows])
            h[rows], steps[rows] = step, steps[rows] + 1
            _, psi, curv, noise = equation(step, *sides[..., rows])
            a[rows] = np.where(psi < 0.0, step, a[rows])
            b[rows] = np.where(psi > 0.0, step, b[rows])
            live = ((np.abs(psi) > noise) & (moved > tol[rows]) & (b[rows] - a[rows] > tol[rows])
                    & (steps[rows] < _NEWTON_STEPS))
            rows, psi, curv = rows[live], psi[live], curv[live]
        found = profile(equation(h, *sides)[0])
        better = found[0] >= ll
        ll, delta, var = (np.where(better, f, g) for f, g in zip(found, (ll, delta, var)))
        mu = np.where(better, best + h, best)
        t = np.column_stack((mu, np.log(np.sqrt(var)), box.encode(delta)))
    return _RowFits(t, -ll, steps, np.ones(m, dtype=bool), np.zeros(m, dtype=int))


# ---------------------------------------------------------------------------
# the family table


def _two_piece(loc, delta, nu=None, scaling="isf"):
    if scaling not in _SCALINGS:
        raise ValueError(f"unknown two-piece scaling {scaling!r}; expected isf or epsilon")
    sym = normal_base() if nu is None else student_base(nu)
    return TwoPieceParams(sym, loc, _SCALINGS[scaling](delta))


class _Shape(NamedTuple):
    name: str
    map: "Optional[_LogBox | _TanhCap]" = None  # None where no likelihood fit optimizes it
    col: Optional[int] = None  # its optimizer coordinate


@dataclass(frozen=True)
class _Family:
    """One family: its parameters, and how to build, fit and report it.

    Every family has a location mu and a scale sigma, optimized as mu and
    log sigma in coordinates 0 and 1.  shapes holds the other parameters in
    report order, each with its map and coordinate; a scaled family (one
    with a shape mapped by _ISF: the two-piece families, whose reports carry
    the scaling) fits its asymmetry in ISF coordinates under either scaling,
    boxed by the scaling's cap, and reports it in the scaling's form.  make
    builds the distribution from a LocationScale and the shapes as keywords,
    plus the scaling where scaled.
    logf is the family's per-point log-density, which the distribution
    built by make evaluates too: logf(z, *shapes) at standardized points z,
    the shapes in report order; a scaled family's is ISF's.  starts is the
    optimizer's start list; chase, where set, makes its last start a
    frontier chase and bounds that frontier (_plan_rows); penalty, where
    set, is a term of the negative log-likelihood in the shapes.  exact,
    where set, fits every data row without the optimizer (the normal
    family, which has no logf, and the two-piece normal's profile).
    boundary_flag reads the cap of the shape named delta.  A family with a
    logf or an exact fitter is fit by maximum likelihood (mle); quantile_fit
    is a letter-value fit.  nests, where set, is the null lr_test takes
    against this family: the family it equals where its other coordinates
    are 0, where every map puts its symmetric value (delta = 0, eta = 1).
    """

    name: str
    make: Callable
    shapes: tuple = ()
    logf: Optional[Callable] = None
    starts: Optional[Callable] = None
    quantile_fit: Optional[Callable] = None
    exact: Optional[Callable] = None
    penalty: Optional[Callable] = None
    chase: Optional[Callable] = None
    nests: Optional[str] = None

    @property
    def n_free(self) -> int:
        return 2 + len(self.shapes)

    @property
    def scaled(self) -> bool:
        return any(s.map is _ISF for s in self.shapes)

    @property
    def mle(self) -> bool:
        return self.logf is not None or self.exact is not None

    @cached_property
    def _maps(self) -> dict:
        return {scaling: tuple(box if s.map is _ISF else s.map for s in self.shapes)
                for scaling, box in _ASYMMETRY.items()}

    def maps(self, cfg: FitConfig) -> tuple:
        """Each shape's map; the two-piece asymmetry's box is cfg.scaling's."""
        return self._maps[cfg.scaling]

    def terms(self, t, w, cfg: FitConfig):
        """z (k, n) of data rows w under parameter rows t (k, d), logf(z) and
        its partials in z and each shape, and each shape's (k,) values and
        slopes in t; a shape's partial is asked for where its slope is not 0."""
        decoded = [m.decode(t[:, s.col]) for s, m in zip(self.shapes, self.maps(cfg))]
        values, slopes = [v for v, _ in decoded], [m for _, m in decoded]
        z = (w - t[:, :1]) * np.exp(-t[:, 1:2])
        grad = tuple(m[:, None] != 0.0 for m in slopes)
        logf, dz, *d = self.logf(z, *(v[:, None] for v in values), grad=grad)
        return z, logf, dz, d, values, slopes

    def nll(self, t, w, cfg: FitConfig):
        """The values (k,) of n log sigma - sum logf(z) over each data row,
        plus the penalty, and the scores (k, d), their partials in t."""
        return self.sums(t, self.terms(t, w, cfg))

    def sums(self, t, terms):
        """nll's values and scores of parameter rows t from their terms."""
        z, logf, dz, d, values, slopes = terms
        val = z.shape[1] * t[:, 1] - logf.sum(axis=1)
        g = [-p.sum(axis=1) for p in d]
        if self.penalty is not None:
            p, dp = self.penalty(*values)
            val, g = val + p, [a + b for a, b in zip(g, dp)]
        score = np.empty(t.shape)
        score[:, 0] = np.exp(-t[:, 1]) * dz.sum(axis=1)
        # a row sum, not einsum: einsum's path for a long row depends on the
        # row count, so a row's bits would depend on its batch-mates
        score[:, 1] = z.shape[1] + (dz * z).sum(axis=1)
        for s, gs, slope in zip(self.shapes, g, slopes):
            score[:, s.col] = gs * slope
        return val, score

    def on_edge(self, t, cfg: FitConfig) -> np.ndarray:
        """Whether each parameter row of t (k, d) holds a shape within
        _FRONTIER_TOL of an end of its box, or beyond it, where the shape's
        slope is 0."""
        out = np.zeros(len(t), dtype=bool)
        for s, m in zip(self.shapes, self.maps(cfg)):
            if isinstance(m, _LogBox):
                out |= ((t[:, s.col] <= m.log_lo + _FRONTIER_TOL)
                        | (t[:, s.col] >= m.log_hi - _FRONTIER_TOL))
        return out

    def decode(self, t, cfg: FitConfig) -> dict:
        """Natural parameters, in report order, of optimizer coordinates t."""
        out = {"mu": float(t[0]), "sigma": float(_sigma_of(t[1]))}
        for s, m in zip(self.shapes, self.maps(cfg)):
            if m is _EPSILON:
                # epsilon's delta = tanh t and sigma = sigma_ISF cosh t, each
                # from t itself: through exp(t), delta = 1e-146 would round to 0
                u = np.clip(t[s.col], m.log_lo, m.log_hi)
                out["sigma"], out[s.name] = float(out["sigma"] * np.cosh(u)), float(np.tanh(u))
            else:
                out[s.name] = float(m.decode(t[s.col])[0])
        return out

    def encode(self, params: dict, cfg: FitConfig) -> np.ndarray:
        t = [float(params["mu"]), math.log(float(params["sigma"]))] + [0.0] * len(self.shapes)
        for s, m in zip(self.shapes, self.maps(cfg)):
            if m is _EPSILON:
                u = float(np.clip(np.arctanh(params[s.name]), m.log_lo, m.log_hi))
                t[1], t[s.col] = t[1] - math.log(math.cosh(u)), u
            else:
                t[s.col] = m.encode(params[s.name])
        return np.array(t)

    def at_boundary(self, params: dict, cfg: FitConfig) -> bool:
        m = next((m for s, m in zip(self.shapes, self.maps(cfg)) if s.name == "delta"), None)
        if m is None:
            return False
        delta = params["delta"]
        # epsilon's delta against 1, the edge of its domain, not against its cap
        return 1.0 - abs(delta) <= _FRONTIER_TOL if m is _EPSILON else m.at_cap(delta)


_FAMILIES = {f.name: f for f in (
    _Family("normal", lambda loc: LocatedBase(normal_base(), loc), exact=_normal_rows),
    _Family("logistic", lambda loc: LocatedBase(logistic_base(), loc),
            logf=logistic_logf, starts=_starts_logistic),
    _Family("t", lambda loc, nu: LocatedBase(student_base(nu), loc),
            (_Shape("nu", _NU, 2),), t_logf, _starts_t),
    _Family("skew_normal", lambda loc, delta: SkewNormal(loc.mu, loc.sigma, delta),
            (_Shape("delta", _SKEW, 2),), skew_normal_logf, _starts_skew_normal,
            chase=_half_normal_frontier, nests="normal"),
    _Family("skew_t", lambda loc, nu, delta: SkewT(loc.mu, loc.sigma, nu, delta),
            (_Shape("nu", _NU, 2), _Shape("delta", _SKEW, 3)), skew_t_logf, _starts_skew_t,
            chase=_half_t_frontier, nests="t"),
    _Family("sas_normal",
            lambda loc, delta, eta: TransformParams(normal_base(), loc, SasTransform(delta, eta)),
            (_Shape("delta", _SAS, 2), _Shape("eta", _ETA, 3)), sas_logf, _starts_sas,
            nests="normal"),
    _Family("twopiece_normal", _two_piece, (_Shape("delta", _ISF, 2),), two_piece_logf,
            partial(_starts_two_piece, with_nu=False), exact=_two_piece_rows, nests="normal"),
    # reports delta before nu, but optimizes log nu before delta
    _Family("twopiece_t", _two_piece, (_Shape("delta", _ISF, 3), _Shape("nu", _NU, 2)),
            partial(two_piece_logf, base=t_logf), partial(_starts_two_piece, with_nu=True),
            chase=_half_t_frontier),
    _Family("gh_normal",
            lambda loc, g, h: TransformParams(normal_base(), loc, GhTransform(g, h)),
            (_Shape("g"), _Shape("h")), quantile_fit=fit_gh_quantile),
    _Family("k_normal", lambda loc, eta: TransformParams(normal_base(), loc, KTransform(eta)),
            (_Shape("eta"),)),
)}

FAMILY_ORDER = tuple(name for name, f in _FAMILIES.items() if f.mle)

NESTED_PAIRS = frozenset((f.nests, name) for name, f in _FAMILIES.items() if f.nests)

_PENALIZED_SKEW_NORMAL = replace(_FAMILIES[SKEW_NORMAL_PAIR[1]], penalty=_skew_normal_penalty)


# ---------------------------------------------------------------------------
# distribution construction and likelihood


def distribution_for(family: str, params: dict):
    """Build the distribution object named by family from a parameter dict."""
    spec = _FAMILIES.get(family)
    if spec is None:
        raise ValueError(f"unknown family {family!r}")
    missing = [k for k in ("mu", "sigma", *(s.name for s in spec.shapes)) if k not in params]
    if missing:
        raise ValueError(f"{family} parameters lack {', '.join(missing)}")
    loc = LocationScale(float(params["mu"]), float(params["sigma"]))
    shape = {s.name: float(params[s.name]) for s in spec.shapes}
    if spec.scaled:
        shape["scaling"] = params.get("scaling", "isf")
    return spec.make(loc, **shape)


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
    # the mean of equal values can round away from them, leaving s0 ~ 1e-16
    s0 = np.where(np.ptp(xs, axis=1) > 0.0, xs.std(axis=1), 0.0)
    w = (xs - m0[:, None]) / np.where(s0 > 0.0, s0, 1.0)[:, None]
    return w, e, m0, s0


def _natural(spec: _Family, t, units, cfg: FitConfig) -> dict:
    """Natural parameters of a data row's coordinates t and units (e, m0, s0)."""
    e, m0, s0 = units
    params = spec.decode(t, cfg)
    params["mu"] = float(np.ldexp(m0 + s0 * params["mu"], e))
    params["sigma"] = float(np.ldexp(s0 * params["sigma"], e))
    if spec.scaled:
        params["scaling"] = cfg.scaling
    return params


def _start(spec: _Family, params: dict, units, cfg: FitConfig) -> np.ndarray:
    """spec's optimizer coordinates of params, in natural units, on a data
    row standardized with units (e, m0, s0): the inverse of _natural."""
    e, m0, s0 = units
    return spec.encode({**params, "mu": (float(np.ldexp(params["mu"], -e)) - m0) / s0,
                        "sigma": float(np.ldexp(params["sigma"], -e)) / s0}, cfg)


def _sample_error(spec: _Family, x: np.ndarray) -> Optional[ValueError]:
    """fit_mle's ValueError, if any, on the sample x."""
    if x.size < spec.n_free + 1:
        return ValueError(
            f"{spec.name} fit needs at least {spec.n_free + 1} observations, got {x.size}")
    if x.min() == x.max():
        return ValueError("degenerate sample: zero variance")
    return None


def _plan_rows(spec: _Family, w: np.ndarray, cfg: FitConfig, extra=(), first_only=None):
    """Plan the fit of spec to every standardized data row of w (m, n), as a
    generator of rounds that returns the rows' _RowFits.

    A family with an exact fitter runs it here and yields no round.  The
    others get, for every row, the points in extra (each (m, d)) and then
    the first cfg.restarts structural starts, as quasi-Newton problems
    (starts x rows) seeded by _opg_seed at every start.  Each round yields
    one _Batch and receives its _batch_bfgs result.  Round 1 runs every
    start but a chased family's frontier chase, its last structural start,
    where cfg.restarts reaches it; a row first_only marks, an (m,) boolean
    mask, runs only its first start there.  Round 2 runs the chase on the
    rows where _frontier_can_win, under the family's bound (spec.chase),
    says the frontier can beat the best of round 1.  It also runs round 1's
    other starts on each first_only row whose first start failed, or began
    or ended with a shape at an end of its box (_Family.on_edge): the
    shape's slope drops to 0 there, and such a run can stop short of the
    row's best, as the skew-t's does with nu at 0.5 or 200.  A round with
    no problem is left out.  The seed runs where its problems run, in the
    process that draws their job, so the seeds' kernel pass and linear
    algebra run in the two processes where a set splits, and no kernel
    runs here.  A start that does not run, such as a chase the bound rules
    out, counts as +inf with no iterations.  A stacked start's other points
    bound its result from above where it runs, and each row keeps its
    first best start in start order, whatever round ran it.
    """
    if spec.exact is not None:
        return spec.exact(w, cfg)
    m, n = w.shape
    structural = spec.starts(w, cfg)
    starts = [*extra, *structural[: cfg.restarts]]
    k, d = len(starts), spec.n_free
    chased = spec.chase is not None and cfg.restarts >= len(structural)
    maxiter = cfg.maxiter if cfg.maxiter is not None else 400 * d

    def rejected(t, val):
        # a start or step far outside the data's scale counts as +inf
        return np.where((np.abs(t[:, 0]) > 1e6) | (np.abs(t[:, 1]) > 200.0), np.inf, val)

    def fn(t, rows):
        # parameter row i against data row rows[i]
        val, score = _by_rows(lambda ti, ri: spec.nll(ti, w[ri], cfg), n, t, rows)
        return rejected(t, val), score

    x0 = np.stack([s if s.ndim == 2 else s[:, 0] for s in starts], axis=1).reshape(m * k, d)
    # each problem's best point, value, iterations, convergence and kernel rows
    out = (np.full((m * k, d), np.nan), np.full(m * k, np.inf), np.zeros(m * k, dtype=int),
           np.zeros(m * k, dtype=bool), np.zeros(m * k, dtype=int))

    def run(problems):
        # one round of the problems (flat start x row indices, ascending), if any
        if not problems.size:
            return
        row = problems // k  # each problem's data row

        def seed(idx):
            t = x0[problems[idx]]
            h, seeded, val, score = _opg_seed(spec, w, t, row[idx], cfg)
            return h, seeded, rejected(t, val), score

        result = yield _Batch(lambda t, r: fn(t, row[r]), x0[problems], seed,
                              cfg.xatol, cfg.fatol, maxiter)
        for a, got in zip(out, result):
            a[problems] = got
        with np.errstate(all="ignore"):
            for j, s in enumerate(starts):
                mine = problems[problems % k == j]
                if s.ndim == 3 and mine.size:
                    for point in np.moveaxis(s[mine // k, 1:], 1, 0):
                        val = fn(point, mine // k)[0]
                        lower = val < out[1][mine]
                        out[0][mine[lower]], out[1][mine[lower]] = point[lower], val[lower]

    rows, problems = np.arange(m), np.arange(m * k).reshape(m, k)
    lone = np.zeros(m, dtype=bool) if first_only is None else first_only
    first = problems[:, : k - chased]  # round 1's starts
    yield from run(first[~lone[:, None] | (np.arange(k - chased) == 0)])
    x, fun = out[0].reshape(m, k, d), out[1].reshape(m, k)
    redo = lone & (spec.on_edge(x0[first[:, 0]], cfg) | spec.on_edge(x[:, 0], cfg)
                   | ~np.isfinite(fun[:, 0]))
    again = first[redo, 1:].ravel()
    if chased:
        chase = problems[:, -1]
        gate = _frontier_can_win(spec.chase, w, x0[chase, 0], -fun[:, :-1].min(1))
        again = np.sort(np.concatenate([again, chase[gate]]))
    yield from run(again)
    best = np.argmin(fun, axis=1)
    iters, conv, kernel = (a.reshape(m, k) for a in out[2:])
    return _RowFits(x[rows, best], fun[rows, best], iters.sum(axis=1), conv[rows, best],
                    kernel.sum(axis=1))


def _fit_planned(plans: Sequence, n: int) -> list:
    """The _RowFits each plan of _plan_rows returns, over data rows of n
    points.  Round r of every plan still live runs as one _run_batches
    call, so the families of one call share one loop or one queue per
    round; a round in which no plan yields a batch makes no call."""
    fits, sent, live = [None] * len(plans), [None] * len(plans), range(len(plans))
    while live:
        batches, waiting = [], []
        for i in live:
            try:
                batches.append(plans[i].send(sent[i]))
                waiting.append(i)
            except StopIteration as stop:
                fits[i] = stop.value
        if batches:
            with np.errstate(all="ignore"):
                for i, result in zip(waiting, _run_batches(batches, n)):
                    sent[i] = result
        live = waiting
    return fits


def _fit_rows(spec: _Family, w: np.ndarray, cfg: FitConfig, extra=(), first_only=None) -> _RowFits:
    """Fit spec to every standardized data row of w (m, n) at once."""
    return _fit_planned([_plan_rows(spec, w, cfg, extra, first_only)], w.shape[1])[0]


def _fit_sample(fits: Sequence[tuple], data, cfg: FitConfig) -> list:
    """Fit each (spec, extra_starts) of fits to one sample, every family's
    BFGS problems in one _run_batches call.  Returns, per entry, its
    FitResult or the ValueError its fit raises: a sample too small for the
    family, or a degenerate one.  A bad sample (empty or not finite) raises
    for all."""
    x = _as_data(data)
    n = x.size
    w, (e,), (m0,), (s0,) = _standardize(x[None, :])
    out, plans = [], []
    for spec, extra_starts in fits:
        error = _sample_error(spec, x)
        if error is None:
            extra = [_start(spec, p, (e, m0, s0), cfg)[None, :] for p in extra_starts]
            plans.append(_plan_rows(spec, w, cfg, extra))
        out.append(spec if error is None else error)
    rows = iter(_fit_planned(plans, n))
    for i, spec in enumerate(out):
        if isinstance(spec, ValueError):
            continue
        fit = next(rows)
        params = _natural(spec, fit.t[0], (e, m0, s0), cfg)
        loglik = log_likelihood(spec.name, params, x)
        out[i] = FitResult(
            family=spec.name,
            params=params,
            loglik=loglik,
            aic=2.0 * spec.n_free - 2.0 * loglik,
            bic=spec.n_free * math.log(n) - 2.0 * loglik,
            n=n,
            converged=bool(fit.converged[0]),
            iterations=int(fit.iterations[0]),
            boundary_flag=spec.at_boundary(params, cfg),
        )
    return out


def _fit(spec: _Family, data, cfg: FitConfig, extra_starts=()) -> FitResult:
    """The fit path of fit_mle and fit_mle_penalized_skew_normal."""
    (fit,) = _fit_sample([(spec, extra_starts)], data, cfg)
    if isinstance(fit, ValueError):
        raise fit
    return fit


def _check_families(families) -> None:
    for family in families:
        if family not in FAMILY_ORDER:
            raise ValueError(
                f"unknown family {family!r}; expected one of {', '.join(FAMILY_ORDER)}"
            )


def fit_families(families: Sequence[str], data, config: Optional[FitConfig] = None) -> dict:
    """Maximum-likelihood fits of several families to one sample.

    Every family's optimizer problems run together as one problem set: in
    one work queue in two processes where two cores are usable and the set
    is large, and otherwise in one loop in this process; each result is
    bit-identical to fit_mle's.  Returns a dict from each family to its
    FitResult, or to the ValueError fit_mle raises for it (a sample too
    small for the family, or one with zero variance).  Data that are
    empty or not finite raise ValueError.
    """
    _check_families(families)
    cfg = config if config is not None else FitConfig()
    return dict(zip(families, _fit_sample([(_FAMILIES[f], ()) for f in families], data, cfg)))


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
    _check_families([family])
    cfg = config if config is not None else FitConfig()
    return _fit(_FAMILIES[family], data, cfg, extra_starts or ())


def fit_mle_penalized_skew_normal(data, config: Optional[FitConfig] = None) -> FitResult:
    """Skew-normal fit with the penalty c1*ln(1 + c2*delta^2) on the loglik.

    On small frontier samples, such as criterion 8's six all-positive
    points, the penalty keeps delta finite and unflagged; under 10 nats at
    the _SKEW cap and not growing with n, it can leave a large sample's on
    the cap, flagged.  The reported loglik (and the criteria built from it)
    is the unpenalized value at the penalized optimum.
    """
    cfg = config if config is not None else FitConfig()
    return _fit(_PENALIZED_SKEW_NORMAL, data, cfg)


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


def _lr_rows(null_spec, alt_spec, rows, cfg, replicate):
    """LR statistics 2 (loglik_alt - loglik_null) of each data row of rows (m, n).

    Both families are fit on the same standardized rows, so the scale terms
    cancel from the statistic.  NaN marks a row whose refit failed.  Where
    the optimizer fits the null, the alternative's first start is the
    null's fit with the alternative's other coordinates at 0, where it
    nests the null, made as fit_mle makes an extra start.  The rows the
    (m,) boolean mask replicate marks are drawn from a fitted null, so that
    start already ends at their best: they run it alone, with the gated
    frontier chase, and the other starts only where it fails or meets an
    end of nu's box (_plan_rows's first_only).  The other rows run every
    start, as fit_mle does.  An
    exactly fit null is the normal, whose standardized fit, the zero point,
    is sas_normal's first start and skew_normal's floor, and whose rows run
    every start: the skew-normal's information is singular at the null
    (Hallin & Ley 2012), and on a ridge of sas_normal's likelihood that
    start alone can stop short of the best by more than 1e-7 nats;
    twopiece_normal is exact.
    """
    w, *units = _standardize(rows)
    null = _fit_rows(null_spec, w, cfg)
    if null_spec.exact is not None:
        alt = _fit_rows(alt_spec, w, cfg)
    else:
        nested = alt_spec.decode(np.zeros(alt_spec.n_free), cfg)
        extra = [np.array([_start(alt_spec, {**nested, **_natural(null_spec, t, u, cfg)}, u, cfg)
                           for t, u in zip(null.t, zip(*units))])]
        alt = _fit_rows(alt_spec, w, cfg, extra, replicate)
    return np.where(units[2] > 0.0, 2.0 * (null.nll - alt.nll), np.nan)


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
    The null is first fit to the observed sample alone, for the law the
    replicates are drawn from; the observed statistic then comes from the
    first row of the replicates' batched row fits, as each replicate's
    does.  The observed row runs every start of the alternative, as
    fit_mle does.  Where the optimizer fits the null (t < skew_t), a
    replicate runs only the alternative's start at the nested null fit,
    plus the gated frontier chase: drawn from the fitted null, its best lies
    at that start's end.  It runs the other starts too where that start
    fails or meets an end of nu's box, where its run can stop short
    (_plan_rows).  Each replicate gets an independent child
    generator spawned from rng, so results are reproducible for a given
    seed and config.  The observed sample and its replicates are refit in
    batches of bounded size.
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
    n = x.size
    specs = _FAMILIES[null_family], _FAMILIES[alt_family]
    for spec in specs:
        if (error := _sample_error(spec, x)) is not None:
            raise error
    null_dist = distribution_for(null_family, _fit(specs[0], x, cfg).params)
    # row 0 is the observed sample, and row i > 0 the replicate drawn from children[i]
    children = [None, *gen.spawn(b)]
    per = _rows_per_batch(n)
    stats = np.concatenate([
        _lr_rows(*specs, np.array([x if c is None else null_dist.sample(n, c) for c in chunk]),
                 cfg, np.array([c is not None for c in chunk]))
        for chunk in (children[i : i + per] for i in range(0, b + 1, per))
    ])
    observed, stats = max(0.0, float(stats[0])), stats[1:]
    ok = np.isfinite(stats)
    failures = int(b - np.count_nonzero(ok))
    if failures > 0.05 * b:
        raise NumericsError(
            f"{failures} of {b} bootstrap refits failed; cannot calibrate the test"
        )
    exceed = int(np.count_nonzero(np.maximum(stats[ok], 0.0) >= observed))
    p_value = (1.0 + exceed) / (b + 1.0)
    return TestResult(statistic=observed, p_value=p_value, replicates=b, failures=failures)


# ---------------------------------------------------------------------------
# the composed-error demo


@dataclass(frozen=True, eq=False)
class SfaDemo:
    """Composite-error simulation output and the two competing fits."""

    sample: np.ndarray
    normal_fit: FitResult
    skew_normal_fit: FitResult

    @property
    def delta_hat(self) -> float:
        return self.skew_normal_fit.params["delta"]

    @property
    def lr_statistic(self) -> float:
        return max(2.0 * (self.skew_normal_fit.loglik - self.normal_fit.loglik), 0.0)


def sfa_composite_error_demo(n: int, sigma_v: float, sigma_u: float,
                             rng: np.random.Generator) -> SfaDemo:
    """Simulate eps = V - U (V normal, U half-normal) and fit both models.

    A positive inefficiency scale sigma_u drags the error left, so the
    fitted skew-normal delta comes out negative.
    """
    if sigma_v <= 0.0 or sigma_u <= 0.0:
        raise ValueError("sigma_v and sigma_u must be positive")
    nb = normal_base()
    v = sigma_v * nb.sample(n, rng)
    u = sigma_u * np.abs(nb.sample(n, rng))
    eps = v - u
    null, alt = SKEW_NORMAL_PAIR
    return SfaDemo(sample=eps, normal_fit=fit_mle(null, eps), skew_normal_fit=fit_mle(alt, eps))
