"""End-to-end checks of the command-line interface via subprocess."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from flexdist import base, cli, infer
from tests import subprocess_env

SQRT_TWO_THIRDS = 0.816496580927726  # sqrt(2/3), mpmath 40-digit
PHI0 = 0.3989422804014327  # 1/sqrt(2*pi)
PHI1 = 0.24197072451914337  # phi(1)

# frozen output of `sample --family skew_normal --delta 2 -n 5 --seed 0`
SAMPLE_SN_SEED0 = [
    -0.35034922725656387,
    0.613458178703528,
    1.7394988867659338,
    2.1314113206263987,
    0.8900118529686625,
]


def run(*args, env_extra=None, cwd=None):
    env = subprocess_env()
    env.pop("FLEXDIST_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "flexdist", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0] == "x,density"
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    return rows


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize takes a fifth of a second to import; only the code
    # paths that need it import it
    code = "import sys, flexdist.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=subprocess_env(), check=True)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------- curve


def test_one_parser_serves_every_command(capsys, monkeypatch):
    # main builds its parser once; subcommands run in a row print what a
    # fresh parser's would, and FLEXDIST_SEED is read when a command runs
    argvs = [["sample", "--family", "skew_normal", "--delta", "2", "-n", "5"],
             ["curve", "--family", "t", "--nu", "5", "--points", "3"],
             ["sample", "--family", "normal", "-n", "3"]]

    def outputs():
        out = []
        for argv in argvs:
            assert cli.main(argv) == 0
            out.append(capsys.readouterr().out)
        return out

    monkeypatch.setenv("FLEXDIST_SEED", "11")
    cached = outputs()
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setenv("FLEXDIST_SEED", "12")
    assert outputs() != cached
    monkeypatch.setenv("FLEXDIST_SEED", "11")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert outputs() == cached


def test_curve_default_grid():
    r = run("curve", "--family", "normal")
    assert r.returncode == 0
    rows = parse_csv(r.stdout)
    assert len(rows) == 2001
    xs = np.array([x for x, _ in rows])
    dens = np.array([d for _, d in rows])
    assert xs[0] == -10.0 and xs[-1] == 10.0
    assert np.all(np.diff(xs) > 0)
    assert np.all(dens >= 0)


def test_curve_two_points_oracle():
    r = run("curve", "--family", "normal", "--points", "2",
            "--x-min", "0", "--x-max", "1")
    assert r.returncode == 0
    rows = parse_csv(r.stdout)
    assert rows == [(0.0, PHI0), (1.0, PHI1)]


def test_curve_skew_normal_oracle():
    r = run("curve", "--family", "skew_normal", "--delta", "1",
            "--points", "3", "--x-min", "-1", "--x-max", "1")
    rows = parse_csv(r.stdout)
    # 2*phi(1)*Phi(1) at x=1; exp(log_pdf) may differ in the last ulp
    assert rows[2][1] == pytest.approx(0.40716159555316006, rel=1e-14)
    assert rows[1][1] == pytest.approx(PHI0, rel=1e-14)


def test_curve_output_file(tmp_path):
    out = tmp_path / "c.csv"
    r = run("curve", "--family", "t", "--nu", "5", "--points", "11",
            "--output", str(out))
    assert r.returncode == 0
    rows = parse_csv(out.read_text())
    assert len(rows) == 11


@pytest.mark.parametrize("family, flags", [("gh_normal", {"g": 0.5, "h": 0.2}),
                                           ("k_normal", {"eta": 0.5})])
def test_curve_of_the_numeric_inverse_families(family, flags):
    r = run("curve", "--family", family, *(f"--{k}={v}" for k, v in flags.items()),
            "--points", "41", "--x-min", "-4", "--x-max", "4")
    assert r.returncode == 0
    rows = parse_csv(r.stdout)
    dist = infer.distribution_for(family, {"mu": 0.0, "sigma": 1.0, **flags})
    xs = np.array([x for x, _ in rows])
    assert [d for _, d in rows] == dist.pdf(xs).tolist()
    assert all(d > 0.0 for _, d in rows)


# every family's own shape flags, with values that make a valid distribution
FAMILY_FLAGS = {
    "normal": {},
    "logistic": {},
    "t": {"nu": 3},
    "skew_normal": {"delta": 1},
    "skew_t": {"nu": 3, "delta": 1},
    "sas_normal": {"delta": 0.5, "eta": 1.5},
    "gh_normal": {"g": 0.5, "h": 0.2},
    "k_normal": {"eta": 0.5},
    "twopiece_normal": {"delta": 2},
    "twopiece_t": {"nu": 3, "delta": 2},
}
SHAPE_FLAGS = ("delta", "eta", "g", "h", "nu")


def _flags(params):
    return [f"--{name}={value}" for name, value in params.items()]


@pytest.mark.parametrize("family", sorted(FAMILY_FLAGS))
def test_curve_missing_shape_flag(family, capsys):
    assert set(FAMILY_FLAGS) == set(infer._FAMILIES)
    own = FAMILY_FLAGS[family]
    # with all of its flags the family is accepted
    assert cli.main(["sample", "--family", family, *_flags(own), "-n", "1", "--seed", "0"]) == 0
    for name in own:
        rest = {k: v for k, v in own.items() if k != name}
        assert cli.main(["curve", "--family", family, *_flags(rest)]) == 2
        assert f"requires --{name}" in capsys.readouterr().err


@pytest.mark.parametrize("family", sorted(FAMILY_FLAGS))
def test_curve_forbidden_shape_flag(family, capsys):
    own = FAMILY_FLAGS[family]
    others = {name: 1 for name in SHAPE_FLAGS if name not in own}
    if not infer._FAMILIES[family].scaled:
        others["scaling"] = "isf"
    for name, value in others.items():
        argv = ["curve", "--family", family, *_flags(own), f"--{name}={value}"]
        assert cli.main(argv) == 2
        assert f"does not accept --{name}" in capsys.readouterr().err


def test_curve_negative_sigma():
    r = run("curve", "--family", "normal", "--sigma", "-1")
    assert r.returncode == 2


def test_curve_writes_nothing_without_output(tmp_path):
    r = run("curve", "--family", "normal", "--points", "3", cwd=str(tmp_path))
    assert r.returncode == 0
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- figures


def test_figures_emits_all_panels(tmp_path):
    out = tmp_path / "figs"
    r = run("figures", "--output-dir", str(out))
    assert r.returncode == 0
    files = sorted(p.name for p in out.iterdir())
    assert len(files) == 24
    printed = r.stdout.strip().splitlines()
    assert len(printed) == 24
    for line in printed:
        assert os.path.exists(line)
    # every curve on the shared grid
    for p in out.iterdir():
        rows = parse_csv(p.read_text())
        assert len(rows) == 2001
    # spot-check panel membership
    assert "fig1_left_skew_normal_delta0.csv" in files
    assert "fig2_left_sas_normal_delta-1_eta0.5.csv" in files
    assert "fig3_right_epsilon_skew_t_nu2_delta0.9.csv" in files


# ---------------------------------------------------------------- fit


def write_data(tmp_path, values, name="d.txt"):
    p = tmp_path / name
    p.write_text("".join(f"{v}\n" for v in values))
    return p


def test_fit_normal_three_points(tmp_path):
    p = write_data(tmp_path, [-1, 0, 1])
    r = run("fit", str(p), "--family", "normal")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["schema"] == "flexdist-fit/1"
    params = d["fits"]["normal"]["params"]
    assert params["mu"] == 0.0
    assert params["sigma"] == pytest.approx(SQRT_TWO_THIRDS, abs=1e-15)


def test_fit_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("# header\n1.0\n\n  2.0\n# tail\n3.0\n-1\n0\n1\n2\n0.5\n")
    r = run("fit", str(p), "--family", "normal")
    d = json.loads(r.stdout)
    assert d["n"] == 8


def test_fit_parse_error_reports_line(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("1.0\n2.0\noops\n")
    r = run("fit", str(p), "--family", "normal")
    assert r.returncode == 2
    assert f"{p}:3" in r.stderr


def test_fit_rejects_nonfinite(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("1.0\ninf\n2.0\n")
    r = run("fit", str(p), "--family", "normal")
    assert r.returncode == 2
    assert f"{p}:2" in r.stderr


def test_fit_missing_file():
    r = run("fit", "/no/such/file.txt", "--family", "normal")
    assert r.returncode == 2


def test_fit_all_ranks_families(tmp_path):
    rng = np.random.default_rng(4)
    p = write_data(tmp_path, rng.normal(size=60))
    r = run("fit", str(p), "--all", "--seed", "0")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert set(d["ranking"]) <= set(d["fits"])
    assert len(d["fits"]) == 8
    aics = [d["fits"][f]["aic"] for f in d["ranking"]]
    assert aics == sorted(aics)


def test_fit_gh_quantile_report(tmp_path):
    rng = np.random.default_rng(9)
    p = write_data(tmp_path, rng.normal(size=200))
    r = run("fit", str(p), "--family", "gh_normal")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    rep = d["fits"]["gh_normal"]
    assert rep["method"] == "quantile"
    assert set(rep["params"]) == {"mu", "sigma", "g", "h"}


def test_fit_bytes_reproducible(tmp_path):
    rng = np.random.default_rng(2)
    p = write_data(tmp_path, rng.normal(size=40))
    r0 = run("fit", str(p), "--family", "skew_normal", "--seed", "7")
    r1 = run("fit", str(p), "--family", "skew_normal", "--seed", "7")
    assert r0.stdout == r1.stdout


# ---------------------------------------------------------------- test


def test_lr_test_p_granularity(tmp_path):
    rng = np.random.default_rng(5)
    p = write_data(tmp_path, rng.normal(size=50))
    r = run("test", str(p), "--null", "normal", "--alt", "skew_normal",
            "--reps", "99", "--seed", "1")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["schema"] == "flexdist-test/1"
    assert d["replicates"] == 99
    # p = (1 + count) / 100 exactly
    assert d["p_value"] * 100 == pytest.approx(round(d["p_value"] * 100), abs=1e-9)
    assert 0.01 <= d["p_value"] <= 1.0


def test_lr_test_rejects_non_nested_pair(tmp_path):
    p = write_data(tmp_path, [-1, 0, 1, 2, -2, 0.5, 1.5, -0.5])
    r = run("test", str(p), "--null", "normal", "--alt", "skew_t",
            "--reps", "19")
    assert r.returncode == 2


# ---------------------------------------------------------------- sample


def test_sample_frozen_regression():
    r = run("sample", "--family", "skew_normal", "--delta", "2",
            "-n", "5", "--seed", "0")
    assert r.returncode == 0
    vals = [float(v) for v in r.stdout.split()]
    assert vals == SAMPLE_SN_SEED0


def test_sample_env_seed_and_override():
    base = run("sample", "--family", "normal", "-n", "3", "--seed", "9")
    env = run("sample", "--family", "normal", "-n", "3",
              env_extra={"FLEXDIST_SEED": "9"})
    over = run("sample", "--family", "normal", "-n", "3", "--seed", "1",
               env_extra={"FLEXDIST_SEED": "9"})
    assert env.stdout == base.stdout
    assert over.stdout != base.stdout


def test_sample_bad_env_seed():
    r = run("sample", "--family", "normal", "-n", "2",
            env_extra={"FLEXDIST_SEED": "not-an-int"})
    assert r.returncode == 2


def test_sample_requires_count():
    r = run("sample", "--family", "normal")
    assert r.returncode == 2


def test_sample_negative_count():
    r = run("sample", "--family", "normal", "-n", "-3")
    assert r.returncode == 2


def test_sample_zero_count_prints_nothing(capsys):
    assert cli.main(["sample", "--family", "skew_t", "--nu", "2", "--delta", "2", "-n", "0"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("error", ["NumericsError", "IntegrationError", "BracketError"])
def test_numerical_failures_exit_with_code_3(error, monkeypatch, capsys):
    def fail(family, params):
        raise getattr(base, error)("no bracket")

    monkeypatch.setattr(infer, "distribution_for", fail)
    assert cli.main(["curve", "--family", "normal"]) == 3
    assert capsys.readouterr().err == "numerical failure: no bracket\n"


def test_sample_fit_roundtrip_two_piece(tmp_path):
    r = run("sample", "--family", "twopiece_normal", "--delta", "2",
            "--scaling", "isf", "-n", "100000", "--seed", "11")
    assert r.returncode == 0
    p = tmp_path / "tp.txt"
    p.write_text(r.stdout)
    f = run("fit", str(p), "--family", "twopiece_normal", "--scaling", "isf")
    d = json.loads(f.stdout)
    assert abs(d["fits"]["twopiece_normal"]["params"]["delta"] - 2) < 0.3


# ---------------------------------------------------------------- sfa-demo


def test_sfa_demo_negligible_inefficiency():
    r = run("sfa-demo", "-n", "10000", "--sigma-v", "1",
            "--sigma-u", "0.05", "--seed", "15")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["schema"] == "flexdist-sfa/1"
    assert d["lr_statistic"] < 3.84
    assert d["preferred_by_aic"] == "normal"


def test_sfa_demo_strong_inefficiency():
    r = run("sfa-demo", "-n", "5000", "--sigma-v", "1",
            "--sigma-u", "1", "--seed", "7")
    d = json.loads(r.stdout)
    assert d["skew_normal"]["params"]["delta"] < 0
    assert d["preferred_by_aic"] == "skew_normal"


def test_sfa_demo_rejects_tiny_n():
    r = run("sfa-demo", "-n", "4")
    assert r.returncode == 2


# ---------------------------------------------------------------- plumbing


def test_help_exits_zero():
    assert run("--help").returncode == 0
    for sub in ("curve", "figures", "fit", "test", "sample", "sfa-demo"):
        assert run(sub, "--help").returncode == 0


def test_shape_flag_help_names_its_families():
    # the shape flags come from the family table, each naming its families
    text = " ".join(run("sample", "--help").stdout.split())
    for name in cli._SHAPE_FLAGS:
        families = ", ".join(f for f, flags in cli._FAMILY_FLAGS.items() if name in flags)
        assert f"--{name} {name.upper()} shape of {families}" in text


def test_unknown_flag_exits_two():
    assert run("curve", "--bogus").returncode == 2


def test_unknown_subcommand_exits_two():
    assert run("frobnicate").returncode == 2


def test_no_arguments_exits_two():
    assert run().returncode == 2
