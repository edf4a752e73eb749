"""Command-line front end.

Subcommands: curve (density CSV), figures (the bundled curve catalog),
fit (JSON fit report), test (bootstrap LR test), sample (draws, one per
line), sfa-demo (composed-error simulation and competing fits).

Exit codes: 0 success, 2 usage or data error, 3 numerical failure.
All floats are printed with repr, which round-trips to the same bits.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import infer
from .base import NumericsError, make_rng


class UsageError(Exception):
    """Bad flags, bad parameter values, or unreadable data: exit code 2."""


# accepted shape flags per family, from the family table; mu and sigma are
# always required, and a scaled family also takes --scaling
_FAMILY_FLAGS = {name: tuple(s.name for s in f.shapes) for name, f in infer._FAMILIES.items()}
_SHAPE_FLAGS = tuple(sorted({flag for flags in _FAMILY_FLAGS.values() for flag in flags}))

_FIT_FAMILIES = tuple(name for name, f in infer._FAMILIES.items() if f.mle or f.quantile_fit)


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("FLEXDIST_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"FLEXDIST_SEED must be an integer, got {env!r}")


def _family_params(args) -> dict:
    family = args.family
    if family is None:
        raise UsageError("--family is required")
    if family not in _FAMILY_FLAGS:
        known = ", ".join(sorted(_FAMILY_FLAGS))
        raise UsageError(f"unknown family {family!r}; choose from {known}")
    params = {"mu": args.mu, "sigma": args.sigma}
    if args.sigma <= 0.0:
        raise UsageError(f"--sigma must be positive, got {args.sigma}")
    accepted = _FAMILY_FLAGS[family]
    for name in _SHAPE_FLAGS:
        value = getattr(args, name)
        if name in accepted:
            if value is None:
                raise UsageError(f"family {family!r} requires --{name}")
            params[name] = value
        elif value is not None:
            raise UsageError(f"family {family!r} does not accept --{name}")
    if infer._FAMILIES[family].scaled:
        params["scaling"] = args.scaling or "isf"
    elif args.scaling is not None:
        raise UsageError(f"family {family!r} does not accept --scaling")
    return params


def _distribution(family: str, params: dict):
    try:
        return infer.distribution_for(family, params)
    except ValueError as exc:
        raise UsageError(str(exc))


def read_dataset(path: str) -> np.ndarray:
    """One value per line; '#' lines and blank lines ignored."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read dataset {path!r}: {exc}")
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError:
            raise UsageError(f"{path}:{lineno}: not a number: {line!r}")
        if not math.isfinite(value):
            raise UsageError(f"{path}:{lineno}: non-finite value {line!r}")
        values.append(value)
    if not values:
        raise UsageError(f"{path}: no data values found")
    return np.array(values)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _print_json(report: dict, output: str | None) -> None:
    _emit(json.dumps(report, indent=2) + "\n", output)


def _reprs(values) -> list:
    """The repr of each value as a float, from Python floats rather than
    numpy scalars, which format several times slower."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _curve_csv(dist, xs: np.ndarray, x_text=None) -> str:
    """The density of dist on the grid xs as CSV; x_text, where given, is
    _reprs(xs), so that curves on one grid format it once."""
    rows = map(",".join, zip(x_text or _reprs(xs), _reprs(dist.pdf(xs))))
    return "\n".join(["x,density", *rows]) + "\n"


def _grid(args) -> np.ndarray:
    if args.points < 2:
        raise UsageError(f"--points must be at least 2, got {args.points}")
    if not args.x_max > args.x_min:
        raise UsageError("--x-max must exceed --x-min")
    return np.linspace(args.x_min, args.x_max, args.points)


def cmd_curve(args) -> int:
    params = _family_params(args)
    dist = _distribution(args.family, params)
    _emit(_curve_csv(dist, _grid(args)), args.output)
    return 0


def figure_curves():
    """(filename, distribution) for every captioned curve of the figures.

    Both panels of the second figure repeat two parameter pairs, so 24
    files cover 22 distinct parameter sets.
    """
    curves = []
    for d in (0, 1, 2, 5):
        curves.append((f"fig1_left_skew_normal_delta{d}.csv",
                       _distribution("skew_normal",
                                     {"mu": 0.0, "sigma": 1.0,
                                      "delta": float(d)})))
    for d in (0, 1, 2, 5):
        curves.append((f"fig1_right_skew_t_nu2_delta{d}.csv",
                       _distribution("skew_t",
                                     {"mu": 0.0, "sigma": 1.0, "nu": 2.0,
                                      "delta": float(d)})))
    panels = {"left": [(0.0, 1.0), (-0.5, 0.5), (-1.0, 0.5), (-1.5, 0.5)],
              "right": [(0.0, 1.0), (-0.5, 0.5), (-1.0, 1.0), (-1.5, 1.5)]}
    for side, pairs in panels.items():
        for delta, eta in pairs:
            name = f"fig2_{side}_sas_normal_delta{delta:g}_eta{eta:g}.csv"
            curves.append((name,
                           _distribution("sas_normal",
                                         {"mu": 0.0, "sigma": 1.0,
                                          "delta": delta, "eta": eta})))
    for d in (1, 2, 3, 10):
        curves.append((f"fig3_left_isf_skew_normal_delta{d}.csv",
                       _distribution("twopiece_normal",
                                     {"mu": 0.0, "sigma": 1.0,
                                      "delta": float(d), "scaling": "isf"})))
    for d in (0.0, 0.1, 0.5, 0.9):
        curves.append((f"fig3_right_epsilon_skew_t_nu2_delta{d:g}.csv",
                       _distribution("twopiece_t",
                                     {"mu": 0.0, "sigma": 1.0, "nu": 2.0,
                                      "delta": d, "scaling": "epsilon"})))
    return curves


def cmd_figures(args) -> int:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    xs = np.linspace(-10.0, 10.0, 2001)
    x_text = _reprs(xs)
    for name, dist in figure_curves():
        (out / name).write_text(_curve_csv(dist, xs, x_text))
        print(out / name)
    return 0


def _quantile_fit_report(family: str, data: np.ndarray) -> dict:
    fit = infer._FAMILIES[family].quantile_fit(data)
    names = ("mu", "sigma") + _FAMILY_FLAGS[family]
    return {"family": family, "method": "quantile",
            "params": {name: getattr(fit, name) for name in names},
            "n": fit.n}


def cmd_fit(args) -> int:
    data = read_dataset(args.data)
    # fits draw no random numbers; the seed only labels the report
    seed = _resolve_seed(args)
    config = infer.FitConfig(scaling=args.scaling or "isf")
    if args.all and args.family:
        raise UsageError("give either --family or --all, not both")
    if not args.all and not args.family:
        raise UsageError("give --family <name> or --all")
    report = {"schema": "flexdist-fit/1", "data": args.data,
              "n": int(data.size), "seed": seed,
              "criterion": args.criterion, "fits": {}}
    if args.family:
        family = args.family
        if family not in _FIT_FAMILIES:
            known = ", ".join(_FIT_FAMILIES)
            raise UsageError(f"cannot fit family {family!r}; "
                             f"choose from {known}")
        try:
            if infer._FAMILIES[family].quantile_fit:
                report["fits"][family] = _quantile_fit_report(family, data)
            else:
                fit = infer.fit_mle(family, data, config)
                report["fits"][family] = asdict(fit)
        except ValueError as exc:
            raise UsageError(str(exc))
    else:
        fits, errors = [], {}
        for family, fit in infer.fit_families(infer.FAMILY_ORDER, data, config).items():
            if isinstance(fit, ValueError):
                errors[family] = str(fit)
                continue
            fits.append(fit)
            report["fits"][family] = asdict(fit)
        if not fits:
            raise UsageError("no family could be fitted: "
                             + "; ".join(errors.values()))
        ranking = infer.model_select(fits, criterion=args.criterion)
        report["ranking"] = [f.family for f in ranking]
        if errors:
            report["errors"] = errors
    _print_json(report, args.output)
    return 0


def cmd_test(args) -> int:
    data = read_dataset(args.data)
    seed = _resolve_seed(args)
    try:
        result = infer.lr_test(data, args.null, args.alt, args.reps,
                               rng=make_rng(seed))
    except ValueError as exc:
        raise UsageError(str(exc))
    report = {"schema": "flexdist-test/1", "data": args.data,
              "n": int(data.size), "null": args.null, "alt": args.alt,
              "seed": seed, "statistic": result.statistic,
              "p_value": result.p_value, "replicates": result.replicates,
              "method": result.method, "failures": result.failures}
    _print_json(report, args.output)
    return 0


def cmd_sample(args) -> int:
    if args.n < 0:
        raise UsageError(f"-n must be nonnegative, got {args.n}")
    params = _family_params(args)
    dist = _distribution(args.family, params)
    draws = dist.sample(args.n, make_rng(_resolve_seed(args)))
    text = "".join(v + "\n" for v in _reprs(draws))
    _emit(text, args.output)
    return 0


def cmd_sfa_demo(args) -> int:
    if args.n < 8:
        raise UsageError(f"-n must be at least 8, got {args.n}")
    if args.sigma_v <= 0.0 or args.sigma_u <= 0.0:
        raise UsageError("--sigma-v and --sigma-u must be positive")
    seed = _resolve_seed(args)
    demo = infer.sfa_composite_error_demo(args.n, args.sigma_v, args.sigma_u, make_rng(seed))
    normal, skew = demo.normal_fit, demo.skew_normal_fit
    preferred = skew if skew.aic < normal.aic else normal
    report = {"schema": "flexdist-sfa/1", "n": args.n,
              "sigma_v": args.sigma_v, "sigma_u": args.sigma_u,
              "seed": seed,
              normal.family: asdict(normal),
              skew.family: asdict(skew),
              "lr_statistic": demo.lr_statistic,
              "delta_hat": demo.delta_hat,
              "delta_negative": bool(demo.delta_hat < 0.0),
              "preferred_by_aic": preferred.family}
    _print_json(report, args.output)
    return 0


def _add_family_flags(sub) -> None:
    sub.add_argument("--family", help="distribution family name")
    sub.add_argument("--mu", type=float, default=0.0, help="location")
    sub.add_argument("--sigma", type=float, default=1.0, help="scale > 0")
    for name in _SHAPE_FLAGS:
        families = ", ".join(f for f, flags in _FAMILY_FLAGS.items() if name in flags)
        sub.add_argument(f"--{name}", type=float, help=f"shape of {families}")
    sub.add_argument("--scaling", choices=("isf", "epsilon"),
                     help="two-piece scaling scheme (default isf)")


def _add_seed_flag(sub) -> None:
    sub.add_argument("--seed", type=int,
                     help="RNG seed (default: FLEXDIST_SEED or 0)")


def _add_output_flag(sub) -> None:
    sub.add_argument("--output", help="write to this file instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: it holds no environment
    state (FLEXDIST_SEED is read when a command runs), and parse_args
    leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="flexdist",
        description="Flexible distributions: density curves, fitting, "
                    "bootstrap LR tests, and sampling.")
    subs = parser.add_subparsers(dest="command", required=True)

    curve = subs.add_parser("curve", help="emit a density curve as CSV")
    _add_family_flags(curve)
    curve.add_argument("--x-min", type=float, default=-10.0)
    curve.add_argument("--x-max", type=float, default=10.0)
    curve.add_argument("--points", type=int, default=2001)
    _add_output_flag(curve)
    curve.set_defaults(func=cmd_curve)

    figures = subs.add_parser(
        "figures", help="write every captioned figure curve as CSV files")
    figures.add_argument("--output-dir", default="figures")
    figures.set_defaults(func=cmd_figures)

    fit = subs.add_parser("fit", help="maximum-likelihood fit report (JSON)")
    fit.add_argument("data", help="dataset file, one value per line")
    fit.add_argument("--family", help="single family to fit")
    fit.add_argument("--all", action="store_true",
                     help="fit every family and rank them")
    fit.add_argument("--criterion", choices=("aic", "bic"), default="aic")
    fit.add_argument("--scaling", choices=("isf", "epsilon"),
                     help="two-piece scaling scheme (default isf)")
    _add_seed_flag(fit)
    _add_output_flag(fit)
    fit.set_defaults(func=cmd_fit)

    test = subs.add_parser(
        "test", help="parametric-bootstrap likelihood-ratio test (JSON)")
    test.add_argument("data", help="dataset file, one value per line")
    test.add_argument("--null", default=infer.SKEW_NORMAL_PAIR[0],
                      help="null family (default normal)")
    test.add_argument("--alt", required=True, help="alternative family")
    test.add_argument("--reps", type=int, default=199,
                      help="bootstrap replicates B >= 99 (default 199)")
    _add_seed_flag(test)
    _add_output_flag(test)
    test.set_defaults(func=cmd_test)

    sample = subs.add_parser("sample", help="draw values, one per line")
    _add_family_flags(sample)
    sample.add_argument("-n", type=int, required=True,
                        help="number of draws")
    _add_seed_flag(sample)
    _add_output_flag(sample)
    sample.set_defaults(func=cmd_sample)

    sfa = subs.add_parser(
        "sfa-demo",
        help="composed-error simulation: normal vs skew-normal fits")
    sfa.add_argument("-n", type=int, default=10_000)
    sfa.add_argument("--sigma-v", type=float, default=1.0,
                     help="symmetric noise scale")
    sfa.add_argument("--sigma-u", type=float, default=1.0,
                     help="half-normal inefficiency scale")
    _add_seed_flag(sfa)
    _add_output_flag(sfa)
    sfa.set_defaults(func=cmd_sfa_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
