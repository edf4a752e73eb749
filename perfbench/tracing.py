"""Spans around flexdist's layers, installed at run time for the traced run.

``install`` replaces public functions and distribution methods with thin
wrappers that record a span (name, parent, start, end, attributes) in a
``Tracer``.  Nothing under ``src/`` changes: the wrappers are bound where the
calling modules look the names up, so ``skewsym.integrate`` is wrapped as
well as ``base.integrate``.  Hot inner calls (objective evaluations,
integrand evaluations) are counted on their enclosing span instead of getting
spans of their own.  ``layer_metrics`` turns the spans of N identical rounds
into per-round figures.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time

# numeric helpers bound by name in several modules
NUMERIC = ("integrate", "find_root", "golden_section_max")
# a distribution-method span is recorded only when called from one of these;
# inside quadrature, root finding or a shape measure it is part of that layer
KERNEL_CALLERS = ("job", "cli.main", "infer.lr_test")

FIT_FAMILIES = ("normal", "logistic", "t", "skew_normal", "skew_t",
                "sas_normal", "twopiece_normal", "twopiece_t")
SIMPLEX_FAMILIES = ("logistic", "t", "skew_normal", "skew_t", "sas_normal",
                    "twopiece_t")
PAIRS = ("skew_normal", "sas_normal", "twopiece_normal", "skew_t")
SIZES = ("large", "small")
KERNELS = {
    "base": ("normal", "logistic", "t"),
    "skewsym": ("skew_normal", "skew_t"),
    "transform": ("sas_normal", "gh_normal", "k_normal"),
    "twopiece": ("twopiece_normal", "twopiece_t"),
}
DENSITY_FAMILIES = FIT_FAMILIES  # gh_normal and k_normal reject densities
ALL_FAMILIES = FIT_FAMILIES + ("gh_normal", "k_normal")


class Tracer:
    """In-memory span list; a span is [name, parent, start, end, attrs]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.tag = ""

    def open(self, name, **attrs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, attrs])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def innermost(self):
        return self.spans[self.stack[-1]][0] if self.stack else "job"

    @contextlib.contextmanager
    def job(self, slot):
        idx = self.open("job", slot=slot)
        try:
            yield
        finally:
            self.close(idx)

    def dump(self, path):
        rows = [{"name": n, "parent": p, "start": s, "end": e, "attrs": a}
                for n, p, s, e, a in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "self_s": self_times(self.spans)}, fh)


def family_of(dist):
    """Catalogue family name of a flexdist distribution object."""
    kind = type(dist).__name__
    if kind == "LocatedBase":
        return {"student_t": "t"}.get(dist.base.kind, dist.base.kind)
    if kind == "SkewNormal":
        return "skew_normal"
    if kind == "SkewT":
        return "skew_t"
    if kind == "TransformParams":
        return {"SasTransform": "sas_normal", "GhTransform": "gh_normal",
                "KTransform": "k_normal"}.get(type(dist.tr).__name__, kind)
    if kind == "TwoPieceParams":
        return "twopiece_t" if dist.base.kind == "student_t" else "twopiece_normal"
    return kind


def _size(x):
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


def _span(tracer, name, fn, attrs=None, after=None, when=None):
    """Wrap fn in a span; attrs(args) gives its attributes, after(result)
    more attributes, and when() may veto recording."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if when is not None and not when():
            return fn(*args, **kwargs)
        idx = tracer.open(name, **(attrs(args) if attrs else {}))
        try:
            out = fn(*args, **kwargs)
            if after is not None:
                tracer.spans[idx][4].update(after(out))
            return out
        finally:
            tracer.close(idx)
    return wrapper


def _counting(tracer, name, fn, rows=False):
    """Wrap an optimizer or quadrature whose first argument is the callable
    it drives; count the callable's evaluations (and their time)."""
    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        if tracer.innermost() == name:
            return fn(f, *args, **kwargs)  # nested: counted by the outer span
        idx = tracer.open(name)
        stats = tracer.spans[idx][4]
        stats["evals"] = 0
        stats["busy_s"] = 0.0
        clock = time.perf_counter

        def counted(*a):
            t0 = clock()
            try:
                return f(*a)
            finally:
                stats["busy_s"] += clock() - t0
                stats["evals"] += len(a[1]) if rows else 1
        try:
            return fn(counted, *args, **kwargs)
        finally:
            tracer.close(idx)
    return wrapper


def install(tracer, catalogue):
    """Wrap flexdist's layers; catalogue gives one distribution per class."""
    from flexdist import base, cli, infer, measures, skewsym, transform, twopiece

    modules = (base, skewsym, transform, twopiece, measures, infer, cli)
    for name in NUMERIC:
        orig = getattr(base, name)
        label = "base." + name
        if name == "integrate":
            wrapped = _counting(tracer, label, orig)
        else:
            wrapped = _span(tracer, label, orig,
                            when=lambda label=label: tracer.innermost() != label)
        for mod in modules:
            if getattr(mod, name, None) is orig:
                setattr(mod, name, wrapped)

    cli.main = _span(tracer, "cli.main", cli.main)
    cli.read_dataset = _span(tracer, "cli.read_dataset", cli.read_dataset)
    infer.fit_mle = _span(tracer, "infer.fit_mle", infer.fit_mle,
                          attrs=lambda a: {"family": a[0], "tag": tracer.tag})
    infer.lr_test = _span(
        tracer, "infer.lr_test", infer.lr_test,
        attrs=lambda a: {"pair": a[2], "b": int(a[3])},
        after=lambda r: {"failures": r.failures})
    for name in ("model_select", "distribution_for"):
        setattr(infer, name, _span(tracer, "infer." + name, getattr(infer, name),
                                   when=lambda: tracer.innermost() == "cli.main"))
    infer.nelder_mead = _counting(tracer, "infer.nelder_mead", infer.nelder_mead)
    if hasattr(infer, "_batch_nelder_mead"):
        infer._batch_nelder_mead = _counting(
            tracer, "infer.nelder_mead", infer._batch_nelder_mead, rows=True)
    for name in ("quantile_kurtosis", "ag_skewness"):
        setattr(measures, name, _span(
            tracer, "measures." + name, getattr(measures, name),
            attrs=lambda a: {"family": family_of(a[0])}))

    kernel_ok = lambda: tracer.innermost() in KERNEL_CALLERS  # noqa: E731
    for cls in {type(d) for d in catalogue}:
        module = cls.__module__.rsplit(".", 1)[-1]
        for method in ("pdf", "cdf", "sample"):
            orig = getattr(cls, method)
            setattr(cls, method, _span(
                tracer, "kernel", orig, when=kernel_ok,
                attrs=lambda a, method=method, module=module: {
                    "module": module, "family": family_of(a[0]),
                    "method": method,
                    "points": int(a[1]) if method == "sample" else _size(a[1])}))


def self_times(spans):
    """Total and self seconds per span name (self = minus child spans)."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, _, start, end, _) in enumerate(spans):
        tot, own = out.get(name, (0.0, 0.0))
        out[name] = (tot + end - start, own + end - start - child[i])
    return {k: {"total_s": v[0], "self_s": v[1]} for k, v in out.items()}


def layer_metrics(spans, rounds, overhead_s):
    """Per-layer metrics per round; 0 where the workload skips the layer."""
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    # nearest enclosing lr_test / fit_mle span of every span
    lr_of, fit_of = [-1] * len(spans), [-1] * len(spans)
    child = [0.0] * len(spans)
    for i, (name, parent, start, end, _) in enumerate(spans):
        if parent >= 0:
            lr_of[i], fit_of[i] = lr_of[parent], fit_of[parent]
            child[parent] += end - start
        if name == "infer.lr_test":
            lr_of[i] = i
        elif name == "infer.fit_mle":
            fit_of[i] = i

    acc = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    for i, (name, parent, start, end, a) in enumerate(spans):
        dur = end - start
        lr = lr_of[i]
        pair = spans[lr][4]["pair"] if lr >= 0 else None
        if name == "cli.read_dataset":
            add("cli.read_dataset.s", dur)
        elif name == "cli.main":
            add("cli.self.s", dur - child[i])
        elif name == "infer.lr_test":
            add(("lr", pair, "n"), 1)
            add(("lr", pair, "s"), dur / a["b"])
            add(("lr", pair, "failures"), a.get("failures", 0))
        elif name == "infer.fit_mle":
            if lr >= 0:
                add(("lr", pair, "fit_mle_calls"), 1)
            elif a["tag"] in SIZES:
                add(("fit", a["family"], a["tag"], "s"), dur)
        elif name == "infer.nelder_mead":
            if lr >= 0:
                add(("lr", pair, "evals"), a["evals"])
            elif fit_of[i] >= 0:
                fa = spans[fit_of[i]][4]
                add(("fit", fa["family"], fa["tag"], "evals"), a["evals"])
                add(("fit", fa["family"], fa["tag"], "busy"), a["busy_s"])
        elif name == "kernel":
            if lr >= 0 and a["method"] == "sample":
                add(("lr", pair, "sample_s"), dur)
            elif lr < 0:
                key = (a["module"], a["family"], a["method"])
                add(key + ("points",), a["points"])
                add(key + ("s",), dur)
        elif name.startswith("base."):
            add((name, "calls"), 1)
            add((name, "s"), dur)
            if name == "base.integrate":
                add((name, "evals"), a["evals"])
        elif name.startswith("measures."):
            add((name, a["family"]), dur)

    put("cli.read_dataset.s", acc.get("cli.read_dataset.s", 0.0) / rounds, "s")
    put("cli.self.s", acc.get("cli.self.s", 0.0) / rounds, "s")
    for size in SIZES:
        for fam in FIT_FAMILIES:
            put(f"infer.fit_mle.{fam}.{size}.s",
                acc.get(("fit", fam, size, "s"), 0.0) / rounds, "s")
        for fam in SIMPLEX_FAMILIES:
            put(f"infer.fit_mle.{fam}.{size}.evals",
                round(acc.get(("fit", fam, size, "evals"), 0) / rounds), "count")
    for fam in SIMPLEX_FAMILIES:
        evals = acc.get(("fit", fam, "large", "evals"), 0)
        busy = acc.get(("fit", fam, "large", "busy"), 0.0)
        put(f"infer.objective.{fam}.us_per_eval", 1e6 * busy / evals if evals else 0.0, "us")
    for pair in PAIRS:
        tests = acc.get(("lr", pair, "n"), 0)
        per = (lambda v: v / tests) if tests else (lambda v: 0)
        put(f"infer.lr_test.{pair}.refit_ms", 1e3 * per(acc.get(("lr", pair, "s"), 0.0)), "ms")
        for what in ("fit_mle_calls", "evals", "failures"):
            put(f"infer.lr_test.{pair}.{what}",
                round(per(acc.get(("lr", pair, what), 0))), "count")
        put(f"infer.lr_test.{pair}.sample_s", per(acc.get(("lr", pair, "sample_s"), 0.0)), "s")
    for module, fams in KERNELS.items():
        for fam in fams:
            for method, unit in (("pdf", "points/s"), ("cdf", "points/s"),
                                 ("sample", "draws/s")):
                if method == "pdf" and fam not in DENSITY_FAMILIES:
                    continue
                pts = acc.get((module, fam, method, "points"), 0)
                secs = acc.get((module, fam, method, "s"), 0.0)
                rate = unit.split("/")[0]
                put(f"{module}.{fam}.{method}.{rate}_per_s", pts / secs if secs else 0.0, unit)
    put("base.integrate.calls", round(acc.get(("base.integrate", "calls"), 0) / rounds), "count")
    put("base.integrate.integrand_evals",
        round(acc.get(("base.integrate", "evals"), 0) / rounds), "count")
    put("base.integrate.s", acc.get(("base.integrate", "s"), 0.0) / rounds, "s")
    for name in ("base.find_root", "base.golden_section_max"):
        put(f"{name}.calls", round(acc.get((name, "calls"), 0) / rounds), "count")
        put(f"{name}.s", acc.get((name, "s"), 0.0) / rounds, "s")
    for fam in ALL_FAMILIES:
        put(f"measures.quantile_kurtosis.{fam}.s",
            acc.get(("measures.quantile_kurtosis", fam), 0.0) / rounds, "s")
    for fam in DENSITY_FAMILIES:
        put(f"measures.ag_skewness.{fam}.s",
            acc.get(("measures.ag_skewness", fam), 0.0) / rounds, "s")
    put("trace.overhead_s", overhead_s, "s")
    return m
