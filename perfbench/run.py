"""Benchmark of flexdist: fit, bootstrap LR tests and the distribution layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 5 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Details go to
``perfbench/out/BENCH_<workload>_seed<seed>[_trace].json`` and, when traced,
the spans to ``perfbench/out/TRACE_<workload>_seed<seed>.json``.
``--workload all`` runs the three workloads one after another and prints
their named metrics.  See README.md.
"""
import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
NAMES = ("fit", "bootstrap", "evaluate")
SETUPS = 3  # set-ups per run: this process and two fresh interpreters


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    return ap.parse_args(argv)


def cap_threads():
    """Cap the BLAS/OpenMP pools at the cores this process may use."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= n:
            os.environ[var] = str(n)


def import_cli():
    """flexdist.cli from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "flexdist" / "cli.py").is_file():
        sys.exit(f"error: no flexdist sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import flexdist.cli as cli

    if SRC not in Path(cli.__file__).resolve().parents:
        sys.exit(f"error: imported flexdist from {cli.__file__}, not {SRC}")
    return cli


def setup(args, workdir, cli):
    """Import, inputs and one warm-up call: the measured set-up, scaled by
    five speed probes run right after it (see workloads.probe)."""
    from workloads import PROBE_REF_S, WORKLOADS, probe

    wl = WORKLOADS[args.workload](args.seed, workdir, cli)
    wl.warm_up()
    setup_s = time.perf_counter() - START
    return wl, setup_s * PROBE_REF_S / statistics.median(probe() for _ in range(5))


def child_setup(args):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def rounds_for(wl, seconds, tracer=None):
    """Whole rounds until `seconds` have passed; at least one."""
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(wl.run_round(tracer))
    return rounds, time.perf_counter() - t0


def tail(samples):
    """Highest percentile with at least ten samples beyond it (n >= 40)."""
    n = len(samples)
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return {f"p{pct}": statistics.quantiles(samples, n=100)[pct - 1]}
    return {}


def machine():
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "cpu": platform.processor()}


def untraced(args, wl, setup_s):
    rounds, _ = rounds_for(wl, args.seconds)
    errs = wl.check()
    setups = [setup_s] + [child_setup(args) for _ in range(SETUPS - 1)]
    metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
    for i, name in enumerate(wl.SLOTS):
        metrics[name] = {"value": statistics.median(r[i] for r in rounds), "unit": "s"}
    named = {}
    for name, (value, unit, times) in wl.named_metrics().items():
        named[name] = {"value": value, "unit": unit, "samples": len(times),
                       **(tail(times) if unit == "s" else {})}
    detail = {"rounds": len(rounds), "round_slots_s": rounds, "setup_samples_s": setups,
              "probe_median_s": statistics.median(wl.probes),
              "sides": dict(zip(wl.SLOTS, wl.SLOT_NAMES)),
              "named": named}
    return errs, metrics, detail


def traced(args, wl):
    import tracing
    from flexdist import infer
    from workloads import CATALOGUE

    plain, plain_s = rounds_for(wl, args.seconds / 2)
    tracer = tracing.Tracer()
    tracing.install(tracer, [infer.distribution_for(f, p) for f, p in CATALOGUE])
    t0 = time.perf_counter()
    for _ in plain:
        wl.run_round(tracer)
    overhead = (time.perf_counter() - t0 - plain_s) / len(plain)
    errs = wl.check()
    metrics = tracing.layer_metrics(tracer.spans, len(plain), overhead)
    tracer.dump(OUT / f"TRACE_{args.workload}_seed{args.seed}.json")
    return errs, metrics, {"rounds": len(plain), "untraced_round_s": plain_s / len(plain)}


def run_all(args):
    """Each workload in its own process; print the named metrics."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        detail = json.loads((OUT / f"BENCH_{name}_seed{args.seed}.json").read_text())
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        metrics = {"setup_s": res["metrics"]["setup_s"], **detail["named"]}
        for metric, m in metrics.items():
            print(f"  {metric:<22} {m['value']:.6g} {m['unit']}")
            total["metrics"][f"{name}.{metric}"] = {"value": m["value"], "unit": m["unit"]}
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
    print(json.dumps(total))
    return 0


def main(argv=None):
    args = parse(argv)
    cap_threads()
    cli = import_cli()
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl, setup_s = setup(args, workdir, cli)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            errs, metrics, detail = traced(args, wl)
        else:
            errs, metrics, detail = untraced(args, wl, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for e in errs:
        print(f"check failed: {e}", file=sys.stderr)
    result = {"correct": not errs, "attempted": wl.attempted, "failed": wl.failed,
              "metrics": metrics}
    suffix = "_trace" if args.trace else ""
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              **result, "errors": errs, **detail, "machine": machine()}
    (OUT / f"BENCH_{args.workload}_seed{args.seed}{suffix}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
