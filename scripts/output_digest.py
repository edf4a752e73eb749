"""Print SHA-256 digests of the CLI's reports, curves and draws on seeded data.

Runs ``flexdist.cli.main`` in-process on fixed datasets and prints one
digest per command, then a total over all of them.  Two checkouts whose
totals agree wrote byte-identical reports, curves, draws, exit codes and
error messages, so the script checks that a change left every result's bits
as they were:

    python scripts/output_digest.py                      # this checkout
    python scripts/output_digest.py --src ../other/src   # another checkout

The datasets are normal, t_3, skew-normal (delta = 4) and gamma(2) draws at
n = 200 and n = 10^4, plus one all-positive sample on which the skew-normal
and two-piece fits end at their frontier, and its reflection, the
all-negative sample, on which the two-piece location lands on the sample
maximum rather than the minimum.  The commands are ``fit --all`` under both
two-piece scalings, ``fit --family F`` for every fittable family (both
scalings where the family has them), and ``test`` for the four nested pairs
at ``--reps 99`` on the n = 200 datasets.  The distribution layer follows:
``figures`` (its 24 curve files), and ``curve`` and ``sample -n 1000`` for
every family of the table at each of its shapes in SHAPES, under both
scalings where the family has them.  A run takes about 40 seconds on two cores.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

DATA_SEED = 20260101
TEST_REPS = 99
TEST_SEED = 7
SAMPLE_N = 1000
# shape flags per family for curve and sample, one list per law; delta =
# 0.5 suits the two-piece families under both scalings.  The second g-and-h
# law has a bounded support (g < 0, h = 0) and the second K law far tails,
# so the numeric H meets its support end and its far tails.
SHAPES = {
    "normal": [[]], "logistic": [[]], "t": [["--nu", "2"]], "skew_normal": [["--delta", "2"]],
    "skew_t": [["--nu", "2", "--delta", "2"]], "sas_normal": [["--delta", "-1", "--eta", "0.5"]],
    "gh_normal": [["--g", "0.5", "--h", "0.2"], ["--g", "-0.5", "--h", "0"]],
    "k_normal": [["--eta", "0.5"], ["--eta", "2"]],
    "twopiece_normal": [["--delta", "0.5"]], "twopiece_t": [["--nu", "2", "--delta", "0.5"]],
}


def datasets() -> dict:
    """Name -> sample, drawn with numpy alone so any checkout reads the same data."""
    rng = np.random.default_rng(DATA_SEED)
    out = {}
    for n in (200, 10_000):
        u0, u1 = np.abs(rng.standard_normal(n)), rng.standard_normal(n)
        c = 4.0 / np.sqrt(17.0)
        out[f"normal_{n}"] = rng.standard_normal(n)
        out[f"t3_{n}"] = rng.standard_t(3.0, size=n)
        out[f"skew_normal_{n}"] = c * u0 + np.sqrt(1.0 - c * c) * u1
        out[f"gamma_{n}"] = rng.gamma(2.0, size=n)
    out["positive_200"] = np.abs(rng.standard_normal(200)) + 0.1
    out["negative_200"] = -out["positive_200"]
    return out


def commands(cli, names):
    """The CLI calls on each dataset, then on the distribution layer alone,
    with the families and nested pairs read from the checkout's own family
    table."""
    infer = cli.infer
    for name in names:
        data = f"{name}.txt"
        for scaling in ("isf", "epsilon"):
            yield ["fit", data, "--all", "--scaling", scaling]
        for family in cli._FIT_FAMILIES:
            scaled = infer._FAMILIES[family].scaled
            for scaling in ("isf", "epsilon") if scaled else (None,):
                yield ["fit", data, "--family", family] + (
                    ["--scaling", scaling] if scaling else [])
        if name.endswith("_200"):
            # sorted: a frozenset's order differs between processes
            for null, alt in sorted(infer.NESTED_PAIRS):
                yield ["test", data, "--null", null, "--alt", alt,
                       "--reps", str(TEST_REPS), "--seed", str(TEST_SEED)]
    yield ["figures", "--output-dir", "figures"]
    for family, spec in infer._FAMILIES.items():
        for shape in SHAPES[family]:
            for scaling in ("isf", "epsilon") if spec.scaled else (None,):
                flags = ["--family", family, *shape] + (
                    ["--scaling", scaling] if scaling else [])
                yield ["curve", *flags]
                yield ["sample", *flags, "-n", str(SAMPLE_N), "--seed", str(TEST_SEED)]


def run(cli, argv) -> bytes:
    """Exit code, report and standard error of one in-process CLI call,
    followed by the files that figures names on its standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    files = out.getvalue().splitlines() if argv[0] == "figures" else []
    return "\n".join([str(code), out.getvalue(), err.getvalue(),
                      *(Path(f).read_text() for f in files)]).encode()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                    help="the src directory of the checkout to digest (default: this one)")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import flexdist.cli as cli

    if args.src.resolve() not in Path(cli.__file__).resolve().parents:
        sys.exit(f"error: imported flexdist from {cli.__file__}, not {args.src}")
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        # relative dataset paths, so the reports' "data" fields do not
        # depend on where the data were written
        os.chdir(tmp)
        samples = datasets()
        for name, x in samples.items():
            Path(f"{name}.txt").write_text("".join(f"{v!r}\n" for v in x.tolist()))
        for argv_ in commands(cli, samples):
            digest = hashlib.sha256(run(cli, argv_)).hexdigest()
            total.update(digest.encode())
            print(digest, " ".join(argv_), flush=True)
    print(total.hexdigest(), "total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
