"""The three workloads: their seeded inputs, their rounds and their checks.

A round is a fixed list of operations; every run repeats whole rounds on the
same inputs, so each round does the same work and must give the same output.
Each operation is on the array side or the scalar side of its workload,
reported as ``array_s`` and ``scalar_s``: the seconds one pass over that
side's operations takes.  README.md says what each side holds.
"""
from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from pathlib import Path

import numpy as np

import laws

# acceptance criterion 3's catalogue: every family, one parameter set each
CATALOGUE = [
    ("normal", {"mu": 0, "sigma": 1}),
    ("logistic", {"mu": 0, "sigma": 1}),
    ("t", {"mu": 0, "sigma": 1, "nu": 2}),
    ("skew_normal", {"mu": 0, "sigma": 1, "delta": 2}),
    ("skew_t", {"mu": 0, "sigma": 1, "nu": 2, "delta": 2}),
    ("sas_normal", {"mu": 0, "sigma": 1, "delta": -1.0, "eta": 0.5}),
    ("gh_normal", {"mu": 0, "sigma": 1, "g": 0.5, "h": 0.2}),
    ("k_normal", {"mu": 0, "sigma": 1, "eta": 0.5}),
    ("twopiece_normal", {"mu": 0, "sigma": 1, "delta": 2, "scaling": "isf"}),
    ("twopiece_t", {"mu": 0, "sigma": 1, "nu": 2, "delta": 0.5, "scaling": "epsilon"}),
]
DENSITY = {"gh_normal", "k_normal"}  # these two reject density requests


def rng_for(seed, stream):
    return np.random.default_rng([seed % 2**63, stream])


def write_dataset(path, x):
    path.write_text("".join(f"{float(v)!r}\n" for v in x))


# Speed probe.  The machine these figures come from is shared: the same fit
# runs 30-60% slower for seconds to minutes at a time (CPU time slows with wall
# time, so the cause is contention inside the core, not descheduling).  Each
# round runs this fixed mix of interpreter and scipy.special work about once a
# second between operations.  Its times are scaled by PROBE_REF_S over the
# round's median probe time, which are seconds at one fixed machine speed.  This
# halved the spread of repeated fits (coefficient of variation 0.13 -> 0.06).
PROBE_REF_S = 0.016
PROBE_EVERY_S = 1.0
_PROBE_X = np.linspace(-6.0, 6.0, 10_000)


def probe():
    """Seconds for a fixed mix of interpreter and array work."""
    from scipy import special

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(15_000):
        acc += (i + 1.0) ** 0.5
    for _ in range(8):
        special.log_ndtr(_PROBE_X)
        special.stdtr(5.0, _PROBE_X)
    return time.perf_counter() - t0


class Op:
    """One timed operation: run() is timed, collect() reads its output."""

    def __init__(self, slot, key, run, collect=None, repeats=1, tag=""):
        self.slot, self.key, self.run = slot, key, run
        self.collect = collect or (lambda result: result)
        self.repeats, self.tag = repeats, tag


class Workload:
    """Runs rounds of ops, keeps their timings and first-round outputs."""

    SLOTS = ("array_s", "scalar_s")

    def __init__(self, seed, workdir, cli):
        self.seed, self.workdir, self.cli = seed, Path(workdir), cli
        self.attempted = self.failed = 0
        self.times = {}      # op key -> every timing
        self.outputs = {}    # op key -> output of the first successful call
        self.mismatch = []   # ops whose output changed between rounds
        self.probes = []     # every probe time
        self.ops = []

    def call_cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code = self.cli.main(argv)
        return code, buf.getvalue()

    def cli_op(self, slot, key, argv, output=None, repeats=1, tag=""):
        def collect(result):
            code, stdout = result
            if code != 0:
                return None
            return Path(output).read_text() if output else stdout
        return Op(slot, key, lambda: self.call_cli(argv), collect, repeats, tag)

    def schedule(self):
        """Order of one round's calls: the calls of repeated ops are spread
        evenly between the single ones, so that their median samples the
        whole round and not one stretch of it (the shared machine's speed
        drifts over tens of seconds)."""
        singles = [op for op in self.ops if op.repeats == 1]
        spread = sorted(((j + 0.5) / op.repeats, i, op)
                        for i, op in enumerate(self.ops) if op.repeats > 1
                        for j in range(op.repeats))
        spread = [op for _, _, op in spread]
        gaps = len(singles) + 1
        order = []
        for k in range(gaps):
            order += spread[k * len(spread) // gaps:(k + 1) * len(spread) // gaps]
            order += singles[k:k + 1]
        return order

    def run_round(self, tracer=None):
        """One round; returns each side's seconds for one pass over its ops,
        taking each op's median over its repeats, at the probe's speed."""
        times = {op.key: [] for op in self.ops}
        probes = [probe()]
        last = time.perf_counter()
        for op in self.schedule():
            if time.perf_counter() - last >= PROBE_EVERY_S:
                probes.append(probe())
                last = time.perf_counter()
            if tracer is not None:
                tracer.tag = op.tag
                job = tracer.job(op.slot)
            else:
                job = contextlib.nullcontext()
            t0 = time.perf_counter()
            with job:
                result = op.run()
            times[op.key].append(time.perf_counter() - t0)
            self.attempted += 1
            self._record(op, op.collect(result))
        probes.append(probe())
        self.probes.extend(probes)
        scale = PROBE_REF_S / statistics.median(probes)
        per_slot = [0.0] * len(self.SLOTS)
        for op in self.ops:
            self.times.setdefault(op.key, []).extend(times[op.key])
            per_slot[op.slot] += statistics.median(times[op.key]) * scale
        return per_slot

    def _record(self, op, out):
        if out is None:
            self.failed += 1
        elif op.key not in self.outputs:
            self.outputs[op.key] = out
        elif not _same(self.outputs[op.key], out):
            self.mismatch.append(op.key)

    def check(self):
        import checks  # scipy.stats loads here, after the measured set-up

        errs = [f"{k}: output changed between rounds" for k in set(self.mismatch)]
        return errs + self.check_outputs(checks)

    def samples(self, prefix):
        return [t for k, ts in self.times.items() if k.startswith(prefix) for t in ts]


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


# ---------------------------------------------------------------------------


class Fit(Workload):
    """`fit --all` at n=10^4 and n=200 on laws inside and outside the catalogue."""

    LAWS = [
        ("skew_normal", {"mu": 1.0, "sigma": 2.0, "delta": 5.0}),
        ("t", {"mu": -0.5, "sigma": 1.5, "nu": 4.0}),
        ("normal", {"mu": 3.0, "sigma": 0.5}),
        ("gamma", {"mu": 0.0, "sigma": 1.0, "shape": 2.0}),  # outside
    ]
    # size, n, datasets per law, calls per dataset and round
    SIZES = (("large", 10_000, 2, 1), ("small", 200, 1, 7))
    SLOT_NAMES = ("fit --all on the eight n=10^4 datasets",
                  "fit --all on the four n=200 datasets")

    def __init__(self, seed, workdir, cli):
        super().__init__(seed, workdir, cli)
        rng = rng_for(seed, 1)
        self.data = {}
        for size, n, copies, repeats in self.SIZES:
            for law, p in self.LAWS:
                for c in range(copies):
                    key = f"{size}/{law}/{c}"
                    path = self.workdir / f"{size}_{law}_{c}.txt"
                    write_dataset(path, laws.stratified_draw(law, p, n, rng))
                    self.data[key] = path
                    out = self.workdir / f"fit_{size}_{law}_{c}.json"
                    self.ops.append(self.cli_op(
                        int(size == "small"), key,
                        ["fit", str(path), "--all", "--output", str(out)],
                        out, repeats, tag=size))

    def warm_up(self):
        self.call_cli(["fit", str(self.data["small/normal/0"]), "--family", "normal",
                       "--output", str(self.workdir / "warm.json")])

    def check_outputs(self, checks):
        errs = []
        for key, path in self.data.items():
            if key not in self.outputs:
                continue
            report = json.loads(self.outputs[key])
            x = np.loadtxt(path)
            errs += [f"{key}: {e}" for e in checks.check_fit_report(report, x)]
            scipy_ll = checks.scipy_fit_logliks(x)
            errs += [f"{key}: {e}" for e in checks.check_against_scipy_fits(report, scipy_ll)]
        return errs

    def named_metrics(self):
        """Per-operation metrics: (value, unit, the op timings behind it)."""
        large, small = self.samples("large/"), self.samples("small/")
        return {"fit_all_large_s": (statistics.median(large), "s", large),
                "fit_all_small_s": (statistics.median(small), "s", small)}


class Bootstrap(Workload):
    """`test` at n=200, B=99, for each nested pair on data from the alternative."""

    B = 99
    N = 200
    # (null, alt, law the data come from, repeats per round, side): the
    # batched and closed-form paths are the array side, the scalar refit
    # loop the scalar side
    PAIRS = [
        ("normal", "skew_normal", {"mu": 0.5, "sigma": 1.5, "delta": 5.0}, 5, 0),
        ("normal", "sas_normal", {"mu": 0.0, "sigma": 1.0, "delta": -0.8, "eta": 0.6}, 1, 1),
        ("normal", "twopiece_normal", {"mu": 1.0, "sigma": 1.0, "delta": 2.5,
                                       "scaling": "isf"}, 25, 0),
        ("t", "skew_t", {"mu": 0.0, "sigma": 2.0, "nu": 4.0, "delta": 5.0}, 1, 1),
    ]
    SLOT_NAMES = ("test normal<skew_normal (batched) + normal<twopiece_normal (profile)",
                  "test normal<sas_normal + t<skew_t (scalar refit per replicate)")

    def __init__(self, seed, workdir, cli):
        super().__init__(seed, workdir, cli)
        rng = rng_for(seed, 2)
        self.data = {}
        for null, alt, p, repeats, slot in self.PAIRS:
            path = self.workdir / f"{alt}.txt"
            write_dataset(path, laws.draw(alt, p, self.N, rng))
            self.data[alt] = (null, path)
            out = self.workdir / f"test_{alt}.json"
            argv = ["test", str(path), "--null", null, "--alt", alt,
                    "--reps", str(self.B), "--seed", str(int(rng.integers(2**31))),
                    "--output", str(out)]
            self.ops.append(self.cli_op(slot, alt, argv, out, repeats))

    def warm_up(self):
        self.ops[2].run()  # one closed-form twopiece test

    def check_outputs(self, checks):
        from flexdist import infer

        errs = []
        for alt, (null, path) in self.data.items():
            if alt not in self.outputs:
                continue
            report = json.loads(self.outputs[alt])
            x = np.loadtxt(path)
            nf = infer.fit_mle(null, x)
            embed = []
            if alt == "skew_t":  # t is skew_t at delta = 0
                embed = [{**nf.params, "delta": 0.0}]
            af = infer.fit_mle(alt, x, extra_starts=embed)
            stat = max(0.0, 2.0 * (af.loglik - nf.loglik))
            errs += checks.check_test_report(report, stat, self.B)
        return errs

    def named_metrics(self):
        out = {}
        for _, alt, _, _, _ in self.PAIRS:
            times = self.samples(alt)
            out[f"lr_{alt}_s"] = (statistics.median(times), "s", times)
        return out


class Evaluate(Workload):
    """The distribution layer alone: curves, array cdf, sampling, shape table."""

    N_CDF = 20_000
    N_DRAWS = 200_000
    N_KS = 2_000
    GRID = np.linspace(-10.0, 10.0, 2001)
    SLOT_NAMES = ("27 curves x 2001 points, cdf on 10 x 20000 points, 10 x 200000 draws",
                  "shape table: octile kurtosis x10, AG skewness x8")

    def __init__(self, seed, workdir, cli):
        super().__init__(seed, workdir, cli)
        from flexdist import infer, measures

        self.infer, self.measures = infer, measures
        rng = rng_for(seed, 3)
        self.points = {f: np.sort(laws.draw(f, p, self.N_CDF, rng)) for f, p in CATALOGUE}
        self.sample_seed = int(rng.integers(2**31))
        figdir = self.workdir / "figures"
        self.curve_argvs = [["figures", "--output-dir", str(figdir)]]
        self.curve_files = {}
        for fam, p in (CATALOGUE[0], CATALOGUE[1], CATALOGUE[2]):
            out = self.workdir / f"curve_{fam}.csv"
            flags = [f"--{k}={v}" for k, v in p.items()]
            self.curve_argvs.append(["curve", "--family", fam, *flags, "--output", str(out)])
            self.curve_files[out] = (fam, p)
        for name, fam, p in figure_catalogue():
            self.curve_files[figdir / name] = (fam, p)
        self.ops = [
            Op(0, "curves", self.curves, self.read_curves, repeats=3),
            Op(0, "cdf", self.cdf_all, repeats=3),
            Op(0, "sample", self.sample_all, repeats=3),
            Op(1, "shape", self.shape_table, repeats=3),
        ]

    def dist(self, fam, p):
        return self.infer.distribution_for(fam, p)

    def curves(self):
        return [self.call_cli(argv)[0] for argv in self.curve_argvs]

    def read_curves(self, codes):
        if any(codes):
            return None
        return {str(path): path.read_text() for path in self.curve_files
                if path.exists()}

    def cdf_all(self):
        return {f: self.dist(f, p).cdf(self.points[f]) for f, p in CATALOGUE}

    def sample_all(self):
        return {f: self.dist(f, p).sample(self.N_DRAWS, rng_for(self.sample_seed, i))
                for i, (f, p) in enumerate(CATALOGUE)}

    def shape_table(self):
        table = {}
        for f, p in CATALOGUE:
            d = self.dist(f, p)
            row = {"quantile_kurtosis": self.measures.quantile_kurtosis(d)}
            if f not in DENSITY:
                row["ag_skewness"] = self.measures.ag_skewness(d)
            table[f] = row
        return table

    def warm_up(self):
        self.call_cli(["curve", "--family", "normal", "--points", "5",
                       "--output", str(self.workdir / "warm.csv")])
        d = self.dist(*CATALOGUE[3])
        d.cdf(self.points["skew_normal"][:10])
        self.measures.quantile_kurtosis(d)

    def check_outputs(self, checks):
        errs = []
        curves = self.outputs.get("curves", {})
        for path, (fam, p) in self.curve_files.items():
            if curves and str(path) in curves:
                xy = np.loadtxt(io.StringIO(curves[str(path)]), delimiter=",", skiprows=1)
                errs += checks.check_density(fam, p, xy[:, 0], xy[:, 1])
            elif curves:
                errs.append(f"curve file {path.name} was not written")
        cdfs = self.outputs.get("cdf", {})
        draws = self.outputs.get("sample", {})
        for i, (fam, p) in enumerate(CATALOGUE):
            if fam in cdfs:
                errs += checks.check_cdf(fam, p, self.points[fam], cdfs[fam],
                                         self.dist(fam, p))
            if fam in draws:
                redraw = lambda fam=fam, p=p, i=i: self.dist(fam, p).sample(  # noqa: E731
                    self.N_KS, rng_for(self.sample_seed, 100 + i))
                errs += checks.check_sample(fam, p, draws[fam][:self.N_KS], redraw)
        if "shape" in self.outputs:
            errs += checks.check_shape_table(CATALOGUE, self.outputs["shape"])
        return errs

    def named_metrics(self):
        k = len(CATALOGUE)
        work = {"curves": ("curve_points_per_s", len(self.curve_files) * self.GRID.size,
                           "points/s"),
                "cdf": ("cdf_points_per_s", k * self.N_CDF, "points/s"),
                "sample": ("draws_per_s", k * self.N_DRAWS, "draws/s")}
        out = {}
        for key, (name, amount, unit) in work.items():
            times = self.samples(key)
            out[name] = (amount / statistics.median(times), unit, times)
        shape = self.samples("shape")
        out["shape_table_s"] = (statistics.median(shape), "s", shape)
        return out


def figure_catalogue():
    """(file name, family, params) of the 24 figure curves, from the captions."""
    out = []
    for d in (0, 1, 2, 5):
        out.append((f"fig1_left_skew_normal_delta{d}.csv", "skew_normal",
                    {"mu": 0.0, "sigma": 1.0, "delta": float(d)}))
    for d in (0, 1, 2, 5):
        out.append((f"fig1_right_skew_t_nu2_delta{d}.csv", "skew_t",
                    {"mu": 0.0, "sigma": 1.0, "nu": 2.0, "delta": float(d)}))
    panels = {"left": [(0.0, 1.0), (-0.5, 0.5), (-1.0, 0.5), (-1.5, 0.5)],
              "right": [(0.0, 1.0), (-0.5, 0.5), (-1.0, 1.0), (-1.5, 1.5)]}
    for side, pairs in panels.items():
        for delta, eta in pairs:
            out.append((f"fig2_{side}_sas_normal_delta{delta:g}_eta{eta:g}.csv",
                        "sas_normal", {"mu": 0.0, "sigma": 1.0, "delta": delta, "eta": eta}))
    for d in (1, 2, 3, 10):
        out.append((f"fig3_left_isf_skew_normal_delta{d}.csv", "twopiece_normal",
                    {"mu": 0.0, "sigma": 1.0, "delta": float(d), "scaling": "isf"}))
    for d in (0.0, 0.1, 0.5, 0.9):
        out.append((f"fig3_right_epsilon_skew_t_nu2_delta{d:g}.csv", "twopiece_t",
                    {"mu": 0.0, "sigma": 1.0, "nu": 2.0, "delta": d, "scaling": "epsilon"}))
    return out


WORKLOADS = {"fit": Fit, "bootstrap": Bootstrap, "evaluate": Evaluate}
