"""Command-line interface: subcommands, exit codes, determinism, file I/O."""

import contextlib
import gc
import io
import itertools
import json
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import exprgen

from spraylab import cli
from spraylab import curvature as cv
from spraylab import spray_core as sc


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv, capsys=None):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def spawn_cli(*argv):
    """Exit code, stdout and stderr of `python -m spraylab.cli ARGV`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "spraylab.cli", *argv],
                          env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_list_contents_and_determinism(capsys):
    code, out, _ = run_cli("list", capsys=capsys)
    assert code == 0
    for fam in ("flat", "riemannian", "sphere", "example72", "randers",
                "custom"):
        assert fam in out
    code2, out2, _ = run_cli("list", capsys=capsys)
    assert out2 == out


def test_evaluate_flat_all_zero(capsys):
    code, out, _ = run_cli("evaluate", "--spray", "flat", "--points", "3",
                           "--seed", "1", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    for pt in doc["points"]:
        q = pt["quantities"]
        for key in ("G", "N", "R", "chi", "T", "W", "eta"):
            assert np.abs(np.array(q[key], dtype=float)).max() == 0.0
        assert q["Ric"] == 0.0
    assert doc["classification"]["chi_zero"] is True


def test_evaluate_polynomial_family_chi_and_weyl_vanish(capsys):
    code, out, _ = run_cli("evaluate", "--spray",
                           "example72(A=x1,B=x2^2,C=x1*x2,D=1+x1,f=x1*x2)",
                           "--points", "5", "--seed", "7", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    for pt in doc["points"]:
        q = pt["quantities"]
        assert np.abs(np.array(q["chi"])).max() < 1e-9
        assert np.abs(np.array(q["W"])).max() < 1e-8


def test_evaluate_s_column_reassembles(capsys):
    # S with sigma = exp(x1) equals Pi - y1; Pi of this family is
    # f_{x1} y1 + f_{x2} y2 with f = x1 x2
    code, out, _ = run_cli("evaluate", "--spray", "example72(f=x1*x2)",
                           "--sigma", "exp(x1)", "--points", "5", "--seed",
                           "3", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    for pt in doc["points"]:
        x, y = pt["x"], pt["y"]
        pi = x[1] * y[0] + x[0] * y[1]
        assert pt["quantities"]["S"]["exp(x1)"] == pytest.approx(pi - y[0],
                                                                 abs=1e-12)


def _unscored(doc) -> list:
    """The applicable rows of a verify report that have no residual: `pass`
    is null only on a row that does not apply."""
    return [r["id"] for r in doc["rows"]
            if r["applicable"] and r["max_residual"] is None]


def test_verify_sphere_all_rows_pass(capsys):
    code, out, _ = run_cli("verify", "--spray", "sphere(n=3,kappa=1)",
                           "--points", "5", "--seed", "11", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert all(r["pass"] is not False for r in doc["rows"])
    applicable = [r for r in doc["rows"] if r["pass"] is not None]
    assert len(applicable) == len(doc["rows"])  # nothing n/a at n = 3 isotropic
    assert _unscored(doc) == []


def test_douglas_row_needs_two_volume_forms(tmp_path, capsys):
    # with one volume form there is no second Douglas tensor to compare with
    path = tmp_path / "withsigma.spray"
    path.write_text("dim = 2\nG1 = x2*y1^2/2\nG2 = 0\nsigma = exp(x1)\n")
    spec = ("--spray", "example72(f=x1*x2)")
    for argv, sigmas in ((spec + ("--sigma", "1"), 1), (("--file", str(path)), 1),
                         (spec, 3)):
        code, out, _ = run_cli("verify", *argv, "--points", "2", "--seed", "1",
                               capsys=capsys)
        doc = json.loads(out)
        assert code == 0 and len(doc["config"]["sigma"]) == sigmas, argv
        assert _unscored(doc) == [], argv
        row = {r["id"]: r for r in doc["rows"]}["douglas-volume-independent"]
        if sigmas == 1:
            assert row["applicable"] is False and row["pass"] is None
            assert row["note"] == ("not applicable with one volume form: "
                                   "nothing to compare")
        else:
            assert row["applicable"] is True and row["pass"] is True
            assert row["max_residual"] is not None and row["note"] == ""


def test_verify_flat_is_fast(capsys):
    t0 = time.monotonic()
    code, out, _ = run_cli("verify", "--spray", "flat", "--points", "5",
                           "--seed", "2", capsys=capsys)
    assert code == 0
    assert time.monotonic() - t0 < 1.0


def test_verify_non_closed_fixture_rows(tmp_path, capsys):
    path = tmp_path / "nonclosed.spray"
    path.write_text("dim = 2\nG1 = x2*y1^2/2\nG2 = 0\n")
    code, out, _ = run_cli("verify", "--file", str(path), "--points", "4",
                           "--seed", "5", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    rows = {r["id"]: r for r in doc["rows"]}
    closed_row = rows["s-closed-chi"]
    assert closed_row["pass"] is None and closed_row["applicable"] is False
    assert "hypothesis fails" in closed_row["note"]
    # the chi residual itself is recorded through the classification block
    assert doc["classification"]["chi_residual"] > 1e-3


def test_verify_metric_input_adds_cartan_route_row(tmp_path, capsys):
    path = tmp_path / "randers.spray"
    path.write_text("dim = 2\na_11 = 1+x2^2\na_12 = x1*x2/2\na_22 = 1+x1^2\n"
                    "b_1 = 0.2*x2\nb_2 = -0.1*x1\nbox = 0.8\n")
    code, out, _ = run_cli("verify", "--file", str(path), "--points", "2",
                           "--seed", "1", capsys=capsys)
    assert code == 0
    rows = {r["id"]: r for r in json.loads(out)["rows"]}
    assert rows["chi-cartan-route"]["pass"] is True
    # bare-spray inputs do not carry the metric route
    code2, out2, _ = run_cli("verify", "--spray", "flat", "--points", "2",
                             capsys=capsys)
    assert "chi-cartan-route" not in {r["id"] for r in
                                      json.loads(out2)["rows"]}


def test_file_sigma_used_by_default(tmp_path, capsys):
    path = tmp_path / "withsigma.spray"
    path.write_text("dim = 2\nG1 = 0\nG2 = 0\nsigma = exp(x1)\n")
    code, out, _ = run_cli("evaluate", "--file", str(path), "--points", "2",
                           "--seed", "1", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["sigma"] == ["exp(x1)"]


def test_exit_code_2_on_input_errors(tmp_path, capsys):
    assert run_cli("evaluate", "--spray", "nosuch", capsys=capsys)[0] == 2
    assert run_cli("evaluate", "--spray", "flat", "--sigma", "y1",
                   capsys=capsys)[0] == 2
    assert run_cli("evaluate", capsys=capsys)[0] == 2  # neither spray nor file
    assert run_cli("evaluate", "--spray", "flat", "--file", "x",
                   capsys=capsys)[0] == 2  # both
    code, _, err = run_cli("evaluate", "--file", "/does/not/exist.spray",
                           capsys=capsys)
    assert code == 2 and "--file /does/not/exist.spray: " in err
    # unreadable --file input, unwritable --out paths and negative seeds: one
    # line that names the flag and the path
    binary = tmp_path / "binary.spray"
    binary.write_bytes(b"dim = 2\nG1 = \xff\nG2 = 0\n")
    missing = tmp_path / "nosuchdir" / "report.json"
    for argv, where in ((("--file", str(tmp_path)), f"--file {tmp_path}: "),
                        (("--file", str(binary)), f"--file {binary}: not UTF-8"),
                        (("--spray", f"custom(file={tmp_path})"),
                         f"custom(file={tmp_path}): "),
                        (("--spray", f"custom(file={binary})"),
                         f"custom(file={binary}): not UTF-8 (byte 13)"),
                        (("--spray", "flat", "--out", str(tmp_path)),
                         f"--out {tmp_path}: "),
                        (("--spray", "flat", "--out", str(missing)),
                         f"--out {missing}: "),
                        (("--spray", "flat", "--seed", "-1"), "--seed")):
        for command in ("evaluate", "verify"):
            code, out, err = run_cli(command, *argv, "--points", "1",
                                     capsys=capsys)
            assert code == 2 and out == "" and err.startswith("error: "), err
            assert where in err and len(err.splitlines()) == 1, err
    assert not list(tmp_path.glob(".report-*"))
    # malformed family parameters
    assert run_cli("evaluate", "--spray", "sphere(n=3", capsys=capsys)[0] == 2
    assert run_cli("evaluate", "--spray", "sphere(3)", capsys=capsys)[0] == 2
    # non-numeric family parameters, metric / 1-form keys outside 1..n or
    # entries that read y (named by the family's letter), a custom spray
    # without its file, and a singular or indefinite Randers a_ij
    for spec, msg in (("sphere(n=abc)", "parameter n='abc'"),
                      ("sphere(n=3,kappa=x)", "parameter kappa='x'"),
                      ("randers(a11=1,a22=1,b3=0.5*x1)", "b_3: index outside 1..2"),
                      ("randers(a11=1,a22=1,b0=0.5)", "b_0: index outside 1..2"),
                      ("riemannian(g11=1,g22=1,g30=1)", "g_30: index outside 1..3"),
                      ("riemannian(g11=y1,g22=1)",
                       "metric entry g_11 must depend on x variables only"),
                      ("randers(a11=1,a22=1,b1=y1)",
                       "1-form entry b_1 must depend on x variables only"),
                      ("custom", "custom(file=PATH)"),
                      ("custom()", "custom(file=PATH)"),
                      ("randers(a11=1,a22=1,a12=1,b1=0.1)",
                       "metric a_ij is singular at x = ("),
                      ("randers(a11=-1,a22=1)",
                       "metric a_ij is not positive definite at x = ("),
                      # an indefinite Riemannian g is refused as Randers' a_ij
                      ("riemannian(g11=x1,g22=1)",
                       "metric g_ij is not positive definite at x = ("),
                      # metric entries in the family's own letter only, and a
                      # 1-form for randers only; a parameter the family's
                      # builder does not take names the family
                      ("randers(g11=1,g22=1,b1=0.1)",
                       "unknown parameter 'g11' for family 'randers'"),
                      ("riemannian(a11=1+x2^2,a22=1)",
                       "unknown parameter 'a11' for family 'riemannian'"),
                      ("riemannian(g11=1,g22=1,b1=0.1)",
                       "unknown parameter 'b1' for family 'riemannian'"),
                      ("flat(kappa=1)", "family 'flat': "),
                      # the family's name is checked before its keys
                      ("nope(g11=1)", "unknown spray family 'nope'; known: "),
                      ("flat(=1)", "unknown parameter '' for family 'flat'")):
        for command in ("evaluate", "verify"):
            code, _, err = run_cli(command, "--spray", spec, "--points", "1",
                                   capsys=capsys)
            assert code == 2 and err.startswith("error: ") and msg in err, err
            assert len(err.splitlines()) == 1 and "make_" not in err
    # a singular Riemannian g is met where the spray is evaluated, at any
    # point: a domain error that names g and the point
    for command in ("evaluate", "verify"):
        code, _, err = run_cli(command, "--spray", "riemannian(g11=1,g22=1,g12=1)",
                               "--points", "1", capsys=capsys)
        assert code == 2 and err.startswith("domain error: metric g_ij is "
                                            "singular at x = ("), err
        assert len(err.splitlines()) == 1
    # a domain error in a symbolic derivative cites the source of the node
    # it differentiates: example72 evaluates only the partials of f
    for command in ("evaluate", "verify"):
        code, out, err = run_cli(command, "--spray", "example72(f=x1/0)",
                                 "--points", "1", capsys=capsys)
        assert code == 2 and out == ""
        assert err == "domain error: division by zero at line 1, column 3\n", err
    # invalid --file sprays: not 2-homogeneous, and a Randers block with
    # |b|_a >= 1; both are bad input, reported without a traceback
    cubic = tmp_path / "cubic.spray"
    cubic.write_text("dim = 2\nG1 = y1^3\nG2 = 0\n")
    wide = tmp_path / "wide.spray"
    wide.write_text("dim = 2\na_11 = 1\na_22 = 1\nb_1 = 1.5\n")
    # coefficients [nan, 0]: inf - inf, which a max() of residuals dropped
    nan = tmp_path / "nan.spray"
    nan.write_text("dim = 2\nG1 = 1e308*10*y1^2 - 1e308*10*y1^2\nG2 = 0\n")
    for path, msg in ((cubic, "2-homogeneity"), (wide, "|b|_a"),
                      (nan, f"{nan}: spray coefficients G(x, s y) are not "
                            "finite at x = (")):
        for command in ("evaluate", "verify"):
            code, _, err = run_cli(command, "--file", str(path), "--points",
                                   "2", capsys=capsys)
            assert code == 2
            assert err.startswith("error: ") and msg in err
            assert "Traceback" not in err and len(err.splitlines()) == 1
    # an inverted domain box
    code, _, err = run_cli("verify", "--spray", "flat(n=2,box=-1)", "--points",
                           "2", capsys=capsys)
    assert code == 2 and "domain box axis x1: bounds [1.0, -1.0]" in err
    # coefficients or residuals that overflow: the non-finite value is named
    # by the spray as given, by its row in a verify report, and located in
    # the report, instead of ending in a traceback
    overflow = tmp_path / "overflow.spray"
    overflow.write_text("dim = 2\nG1 = y1^2*exp(900*x1)\nG2 = 0\n")
    huge = "sphere(n=3,kappa=1e308)"
    for argv, where in (
            (("evaluate", "--file", str(overflow)),
             f"error: --file {overflow}: non-finite value nan at points[1]."),
            (("verify", "--spray", "example72(f=exp(800*x1))"),
             "error: example72(f=exp(800*x1)): row bianchi-first: non-finite "
             "value nan at rows[4].max_residual;"),
            (("evaluate", "--spray", huge),
             f"error: {huge}: non-finite value nan at points[0].quantities.R[0][0];"),
            (("verify", "--spray", huge),
             f"error: {huge}: row bianchi-first: non-finite value nan at "
             "rows[4].max_residual;")):
        # the text format refuses the same value with the same message
        for fmt in ("json", "text"):
            code, out, err = run_cli(*argv, "--points", "2", "--format", fmt,
                                     capsys=capsys)
            assert code == 2 and out == ""
            assert err.startswith(where), err
            assert "Traceback" not in err and len(err.splitlines()) == 1


@given(exprgen.cli_argv())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_exit_code_contract_on_fuzzed_command_lines(argv):
    # any family spec with any flags: exit code 0, 1 or 2, no traceback, and
    # a valid JSON report whenever the run gets as far as one
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:      # argparse refuses a flag
            code = e.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert "line 0, column 0" not in err.getvalue(), argv     # every error located
    if code in (0, 1) and "--format" not in argv:
        json.loads(out.getvalue())


def test_exit_code_contract_on_fuzzed_expression_files(tmp_path):
    # custom(file=...) sprays whose coefficients are random DSL expressions
    # (`exprgen.gen_expr`): every other case made 2-homogeneous as
    # (y1^2 + ... + yn^2) * (E) with E over x only, the rest left raw, which
    # the homogeneity check refuses mostly.  Each file runs with two random
    # volume forms over x, 1.5 + sin(E) and a raw E (which the set-up check
    # may refuse), in JSON and in text.  Same contract as the fuzz above.
    rng = np.random.default_rng(9)
    codes = []
    for case in range(16):
        n = 2 + case % 4 // 2
        coeffs = [exprgen.gen_expr(rng, n, depth=2) for _ in range(n)]
        if case % 2 == 0:
            ysq = " + ".join(f"y{i}^2" for i in range(1, n + 1))
            coeffs = [f"({ysq}) * ({e.replace('y', 'x')})" for e in coeffs]
        wrapped, raw = (exprgen.gen_expr(rng, n, depth=2).replace("y", "x")
                        for _ in range(2))
        path = tmp_path / f"case{case}.spray"
        path.write_text(f"dim = {n}\n" + "".join(
            f"G{i} = {e}\n" for i, e in enumerate(coeffs, start=1)))
        for command, fmt in itertools.product(("evaluate", "verify"), ("json", "text")):
            argv = [command, "--spray", f"custom(file={path})", "--points", "2",
                    "--sigma", f"1.5 + sin({wrapped})", "--sigma", raw,
                    "--format", fmt]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as e:
                    code = e.code
            assert code in (0, 1, 2), (argv, code)
            assert "Traceback" not in err.getvalue(), argv
            assert "line 0, column 0" not in err.getvalue(), argv
            if code in (0, 1):
                assert out.getvalue(), argv
                if fmt == "json":
                    json.loads(out.getvalue())
            codes.append(code)
    assert 0 in codes and 2 in codes, codes


def test_exp_overflow_is_a_located_domain_error(tmp_path, capsys):
    # at seed 4 a sample point has 900*x1 > 709.78, where math.exp overflows
    # before any jet is formed: one located line and exit 2, no traceback
    path = tmp_path / "overflow.spray"
    path.write_text("dim = 2\nG1 = y1^2*exp(900*x1)\nG2 = 0\n")
    for command in ("evaluate", "verify"):
        code, out, err = run_cli(command, "--file", str(path), "--points", "2",
                                 "--seed", "4", capsys=capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "error: exp: " in err
        assert "overflows at line 2, column 11" in err
        assert "Traceback" not in err


def test_the_first_domain_error_is_the_first_point_s(tmp_path, capsys):
    # at seed 11, sigma is not positive at point 1 and G overflows at point
    # 2 of the same block: evaluate and verify name point 1's error, as they
    # would build the points one by one
    path = tmp_path / "overflow.spray"
    path.write_text("dim = 2\nG1 = y1^2*exp(900*x1)\nG2 = 0\n")
    sigma = "(x1+0.634)^2+(x2-0.771)^2-0.0001"
    for command in ("evaluate", "verify"):
        code, out, err = run_cli(command, "--file", str(path), "--sigma", sigma,
                                 "--points", "4", "--seed", "11", capsys=capsys)
        assert code == 2 and out == ""
        assert err == f"domain error: volume density {sigma!r} is not positive\n", err


def test_a_refused_volume_density_is_named_once(capsys):
    # set-up refuses a density by its name, once, and says why: not
    # positive at the first sampled x of the box, or reading y.  Before, the
    # first was "bad volume density 'x1-5': volume density 'x1-5' is not
    # positive".  The error at a sample point keeps its own line (above).
    spray = "sphere(n=3,kappa=1)"
    x = sc.make_family("sphere", n=3, kappa=1.0).domain.check_sample()[0]
    for sigma, why in (("x1-5", f"not positive at x = {x}"),
                       ("y1", "volume densities must depend on x only")):
        for command in ("evaluate", "verify"):
            code, out, err = run_cli(command, "--spray", spray, "--sigma", sigma,
                                     "--points", "3", capsys=capsys)
            assert (code, out) == (2, "")
            assert err == f"error: bad volume density {sigma!r}: {why}\n", err


def test_non_finite_report_value_names_its_path():
    from spraylab import report
    doc = {"points": [{"quantities": {"G": [float("inf"), 0.0]}}]}
    with pytest.raises(report.NonFiniteError) as info:
        report.canonical_json(doc)
    assert " at points[0].quantities.G[0];" in str(info.value)
    # the first in rendering order (sorted keys), but the classification,
    # which sums the rows, after them
    nan = float("nan")
    doc = {"points": [{"quantities": {"N": [nan], "G": [nan]}}],
           "classification": {"chi_residual": nan}}
    with pytest.raises(report.NonFiniteError) as info:
        report.canonical_json(doc)
    assert " at points[0].quantities.G[0];" in str(info.value)
    doc = {"rows": [{"max_residual": nan}], "classification": {"chi_residual": nan}}
    with pytest.raises(report.NonFiniteError) as info:
        report.canonical_json(doc)
    assert " at rows[0].max_residual;" in str(info.value)


def test_verify_classifies_once(monkeypatch, capsys):
    calls = []
    classify = cv.classify

    def counted(*args, **kwargs):
        calls.append(args)
        return classify(*args, **kwargs)

    monkeypatch.setattr(cv, "classify", counted)
    spec = "example72(A=x1,B=x2^2,C=x1*x2,D=1+x1,f=x1*x2)"
    code, out, _ = run_cli("verify", "--spray", spec, "--points", "3",
                           "--seed", "7", capsys=capsys)
    assert code == 0 and len(calls) == 1
    # the classification of the sample's frames, which the suite's blocks
    # stack with the same bits
    sp = cli._build_spray(*cli._parse_family_spec(spec))
    cls = classify(sp.frame(p, 3) for p in sc.sample_points(sp, 3, 7))
    assert json.loads(out)["classification"] == {
        "isotropy_residual": cls.isotropy_residual,
        "scalar_residual": cls.scalar_residual,
        "chi_residual": cls.chi_residual, "isotropic": cls.isotropic,
        "scalar_curvature": cls.scalar_curvature, "chi_zero": cls.chi_zero}


def test_exit_code_1_on_tolerance_failure(capsys):
    code, out, err = run_cli("verify", "--spray", "example72(f=x1*x2)",
                             "--points", "2", "--seed", "1", "--tol",
                             "deformed-chi-vanishes=1e-30", capsys=capsys)
    assert code == 1
    assert "deformed-chi-vanishes" in err


def test_a_cli_process_ends_as_main_returns(capsys):
    # a process runs `cli.run`: main, a frozen heap and a normal exit, so
    # stdout, stderr and the exit code are main's; main itself leaves the
    # collector as it is
    for argv, code, err in (
            (("evaluate", "--spray", "flat", "--points", "2"), 0, ""),
            (("verify", "--spray", "example72(f=x1*x2)", "--points", "2",
              "--seed", "1", "--tol", "deformed-chi-vanishes=1e-30"), 1,
             "FAIL deformed-chi-vanishes: "),
            (("verify", "--spray", "riemannian(g11=x1,g22=1)", "--points", "1"),
             2, "error: ")):
        frozen = gc.get_freeze_count()
        in_process = run_cli(*argv, capsys=capsys)
        assert gc.get_freeze_count() == frozen, argv
        assert in_process[0] == code and in_process[2].startswith(err), argv
        assert (in_process[1] != "") == (code < 2), argv
        assert spawn_cli(*argv) == in_process, argv
    try:
        with pytest.raises(SystemExit) as info:
            cli.run(["list"])
        assert info.value.code == 0 and gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
    capsys.readouterr()


def test_evaluate_builds_the_values_of_r4_and_t_alone(monkeypatch, capsys):
    # evaluate reads R4[0], T[0] and chi[0] of order-4 blocks: no first
    # partials, and each table is built on a block, not on a point's frame;
    # the classification reads the same blocks, so it builds nothing more
    builds = []
    for name in ("R4", "T", "chi"):
        lazy = vars(sc.Frame)[name]     # its bound copies share its `build`
        monkeypatch.setattr(lazy, "build", lambda fr, d, b=lazy.build: (
            builds.append(d) or b(fr, d)))
    blocks = []
    block = sc.Frame.block
    monkeypatch.setattr(sc.Frame, "block", lambda frames, order: blocks.append(
        len(frames)) or block(frames, order))
    code, _, _ = run_cli("evaluate", "--spray", "sphere(n=3,kappa=1)",
                         "--points", "2", capsys=capsys)
    # R4, T and chi on the one block, which evaluate and classify both read
    assert code == 0 and blocks == [2], blocks
    assert builds == [0] * 3, builds


def test_evaluate_memory_does_not_grow_with_the_point_count(monkeypatch, capsys):
    # evaluate (and its classification) stacks the jets of one block of
    # points at a time: the leading axis of every stacked table stops growing
    # with the point count, and its deepest partials stay within BLOCK_BYTES
    reads = []
    table = sc.Frame.table
    monkeypatch.setattr(sc.Frame, "table", staticmethod(
        lambda arr, k, *lead: reads.append((np.shape(arr), k)) or table(arr, k, *lead)))
    largest = {}
    for count in (3, 100, 200):
        reads.clear()
        code, out, _ = run_cli("evaluate", "--spray", "sphere(n=3,kappa=1)",
                               "--points", str(count), capsys=capsys)
        assert code == 0 and len(json.loads(out)["points"]) == count
        stacked = [(s[0], k) for s, k in reads if len(s) == 2]
        assert stacked and {s[-1:] for s, _ in reads} == {(3,)}
        for points, k in stacked:
            assert points * 8 * 3 * 6 ** k <= sc.BLOCK_BYTES, (count, points, k)
        largest[count] = max(points for points, _ in stacked)
    assert largest[3] == 3 and largest[100] == largest[200] < 100, largest


ZOO2D = ("flat(n=2)", "riemannian(g11=1+x2^2,g22=1+x1^2,g12=x1*x2/2)",
         "example72(A=x1,B=x2^2,C=x1*x2,D=1+x1,f=x1*x2)",
         "randers(a11=1+x2^2,a22=1+x1^2,a12=x1*x2/2,b1=0.2*x2,b2=-0.1*x1,box=0.8)")


def test_verify_reports_do_not_depend_on_the_block_size(monkeypatch, capsys,
                                                        tmp_path):
    # every row reads blocks of points (`point_blocks` at order 4): blocks of
    # one point, ragged blocks of three and the default blocks give the same
    # report bytes, JSON and text (its wall clock masked)
    nonquad = tmp_path / "nonquad3.spray"
    nonquad.write_text("dim = 3\nG1 = y1^4/(y1^2+y2^2+y3^2)\n"
                       "G2 = x1*y2^2 + x3*y1*y2\nG3 = x2*y3^2\n")
    runs = [(spec, 2, 10) for spec in ZOO2D] + [
        ("sphere(n=4,kappa=1)", 4, 4), (f"custom(file={nonquad})", 3, 7)]
    default = sc.BLOCK_BYTES
    for spec, n, points in runs:
        per_point = 8 * n * (2 * n) ** 4
        reports, cuts = [], []
        for block_bytes in (per_point, 3 * per_point, default):
            monkeypatch.setattr(sc, "BLOCK_BYTES", block_bytes)
            cuts.append([len(b) for b in sc.point_blocks(range(points), n, 4)])
            for fmt in ("json", "text"):
                code, out, _ = run_cli("verify", "--spray", spec, "--points",
                                       str(points), "--seed", "2", "--format", fmt,
                                       capsys=capsys)
                assert code == 0, spec
                reports.append(out.rsplit("wall clock:", 1)[0])
        assert cuts[0] == [1] * points and cuts[1][0] == 3 != cuts[1][-1], cuts
        assert cuts[2] != cuts[1], cuts
        assert reports[0::2] == [reports[0]] * 3, spec
        assert reports[1::2] == [reports[1]] * 3, spec


def test_verify_makes_few_einsum_calls(monkeypatch, capsys):
    # the rows read blocks of points: one einsum per block and quantity, not
    # one per point (2261 calls when every row ran once per point, 218 on
    # one block of the 10 points)
    calls = [0]
    einsum = np.einsum

    def counted(*args, **kwargs):
        calls[0] += 1
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    code, _, _ = run_cli("verify", "--spray", "flat(n=2)", "--points", "10",
                         "--seed", "3", capsys=capsys)
    assert code == 0 and calls[0] <= 750, calls


def test_evaluate_frees_its_blocks_without_the_garbage_collector(monkeypatch,
                                                                  capsys):
    # a block's lazy tables (R4, T, chi) refer back to it, but the block
    # keeps only what they built (`lazy_table`): once evaluate and its
    # classification move on, each block is freed by reference counting
    # instead of waiting with its stacked tables
    refs = []
    block = sc.Frame.block

    def tracked(frames, order):
        fr = block(frames, order)
        refs.append(weakref.ref(fr))
        return fr

    monkeypatch.setattr(sc.Frame, "block", tracked)
    gc.disable()
    try:
        code, _, _ = run_cli("evaluate", "--spray", "sphere(n=3,kappa=1)",
                             "--points", "20", capsys=capsys)
        alive = [ref() is not None for ref in refs]
    finally:
        gc.enable()
    assert code == 0 and alive == [False] * 3, alive


def test_json_byte_determinism(capsys):
    args = ("verify", "--spray", "example72(f=x1*x2)", "--points", "4",
            "--seed", "9")
    _, out1, _ = run_cli(*args, capsys=capsys)
    _, out2, _ = run_cli(*args, capsys=capsys)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["wall_clock_seconds"] is None
    assert doc["config"]["seed"] == 9


def test_atomic_output_write(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli("verify", "--spray", "flat", "--points", "2",
                         "--out", str(out_path), capsys=capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["version"]
    # no stray temp files left behind
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_text_format_renders_table(capsys):
    code, out, _ = run_cli("verify", "--spray", "flat", "--points", "2",
                           "--format", "text", capsys=capsys)
    assert code == 0
    assert "identity" in out and "status" in out and "wall clock" in out


def test_order_flag(capsys):
    code, out, _ = run_cli("evaluate", "--spray", "flat", "--points", "1",
                           "--order", "3", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert "eta" not in doc["points"][0]["quantities"]
    assert run_cli("evaluate", "--spray", "flat", "--order", "2",
                   capsys=capsys)[0] == 2
    # beyond deciding on eta, the order changes nothing in the report
    spec = ("evaluate", "--spray", "sphere(n=3,kappa=1)", "--points", "2",
            "--seed", "1")
    docs = [json.loads(run_cli(*spec, "--order", o, capsys=capsys)[1])
            for o in ("4", "7")]
    assert "eta" in docs[0]["points"][0]["quantities"]
    assert docs[0]["points"] == docs[1]["points"]


def _evaluated_points(xy, order) -> list:
    """(x + y, order) of each point that one coefficient evaluation covers:
    a point's (x, y) or a block's [point, x + y]."""
    rows = np.atleast_2d(np.asarray(xy, dtype=float))
    return [(tuple(row.tolist()), order) for row in rows]


def test_evaluate_evaluates_the_coefficients_once_per_point(monkeypatch, capsys):
    # each sample point's coefficients are evaluated once, at the top order
    # (4), whose frame the lower orders read, and a block of points
    # (`SprayChart.frames`) is one evaluation: 20 points of sphere(n=3) are
    # blocks of 8, 8 and 4 (`point_blocks`), and the 4, fewer than
    # BLOCK_BUILD_POINTS, are evaluated one by one.  Before blocks, one
    # evaluation per point; before the top order came first, each of the
    # orders 1-4 evaluated the coefficients.  An --order above 4 builds no
    # deeper frame than --order 4.
    evaluations, points, orders = [], [], []
    make, init = sc.SprayChart._coefficient_jets, sc.Frame.__init__

    def counted(self, xy, order):
        evaluations.append(len(np.atleast_2d(xy)))
        points.extend(_evaluated_points(xy, order))
        return make(self, xy, order)

    def recorded(self, spray, point, order, *args):
        orders.append(order)
        init(self, spray, point, order, *args)

    monkeypatch.setattr(sc.SprayChart, "_coefficient_jets", counted)
    monkeypatch.setattr(sc.Frame, "__init__", recorded)
    spec = ("evaluate", "--spray", "sphere(n=3,kappa=1)", "--points", "20",
            "--seed", "1")
    docs = []
    for order in ("4", "9"):
        for log in (evaluations, points, orders):
            log.clear()
        code, out, _ = run_cli(*spec, "--order", order, capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        sample = [tuple(p["x"] + p["y"]) for p in doc["points"]]
        assert sorted(points) == sorted((xy, 4) for xy in sample), points
        assert evaluations == [8, 8, 1, 1, 1, 1], evaluations
        assert max(orders) == 4 and len(orders) == 20, orders
        docs.append(doc)
    assert docs[1]["config"].pop("order") == 9
    assert docs[0]["config"].pop("order") == 4
    assert docs[0] == docs[1]


def _values_per_point(A) -> list:
    """The values of a carrier matrix at each of its points: one point for
    floats and jets, a row per point of block jets."""
    cols = np.broadcast_arrays(*(sc.carrier_value(v) for row in A for v in row))
    return [tuple(r) for r in np.stack(cols, -1).reshape(-1, len(cols)).tolist()]


def test_verify_evaluates_each_coefficient_input_once(monkeypatch, capsys):
    # the suite asks for a metric spray at one x many times (frames at
    # (x, s y), deformed and shifted sprays, float coefficients): at each
    # point g is factored once on jets and once on floats, the float
    # coefficients are evaluated once per (x, y), the deformed coefficient
    # jets once per volume form, and every jet reciprocal is of another jet
    # (one per denominator node and per distinct pivot).  Counted per point:
    # sphere(n=3) at 9 points factors g on the block of the first 8, whose
    # rows serve the later frames there, and on the 9th alone.  Before, one
    # point (set-up included) factored g 4 times on jets at 1 x and 30 times
    # on floats at 6 x, made 30 float evaluations at 24 (x, y), built
    # deformed coefficient jets 6 times for 3 volume forms and took 44
    # reciprocals.
    from spraylab import jets
    from spraylab import projective as pj
    factored = {"jets": [], "floats": []}
    evaluated, reciprocals, deformed, blocks = [], [], [], []
    factor, recip = sc.factor_carrier, jets.Jet.reciprocal
    coefficients = sc.SprayChart.eval_coefficients
    deformed_jets = pj.DeformedSpray._make_coefficient_jets
    resolve, resolved = cli._resolve_spray, []

    def counted_deformed(self, frame):
        deformed.append((self.volume, frame.point))
        return deformed_jets(self, frame)

    def counted_factor(A):
        carrier = "jets" if isinstance(A[0][0], jets.Jet) else "floats"
        factored[carrier] += _values_per_point(A)
        if isinstance(A[0][0], jets.Jet) and A[0][0].coeffs.ndim == 2:
            blocks.append(len(A[0][0].coeffs))
        return factor(A)

    def counted_reciprocal(self):
        reciprocals.extend((self.space, row.tobytes())
                           for row in np.atleast_2d(self.coeffs))
        return recip(self)

    def counted_coefficients(self, xs, ys):
        if not isinstance(xs[0], jets.Jet):
            evaluated.append((self, tuple(xs), tuple(ys)))
        return coefficients(self, xs, ys)

    def recorded_spray(args):
        resolved.append(resolve(args))
        return resolved[-1]

    monkeypatch.setattr(sc, "factor_carrier", counted_factor)
    monkeypatch.setattr(jets.Jet, "reciprocal", counted_reciprocal)
    monkeypatch.setattr(sc.SprayChart, "eval_coefficients", counted_coefficients)
    monkeypatch.setattr(pj.DeformedSpray, "_make_coefficient_jets", counted_deformed)
    monkeypatch.setattr(cli, "_resolve_spray", recorded_spray)
    code, out, _ = run_cli("verify", "--spray", "sphere(n=3,kappa=1)", "--points",
                           "9", "--seed", "3", capsys=capsys)
    assert code == 0 and json.loads(out)["rows"]
    assert blocks == [8]
    for carrier, distinct in (("jets", 9), ("floats", 5 + 9)):    # 5 x in set-up
        assert len(factored[carrier]) == len(set(factored[carrier])) == distinct
    # those of the base spray: the shifted spray's float path reads them
    (base, _sigma, _metric), = resolved
    on_base = [(xs, ys) for spray, xs, ys in evaluated if spray is base]
    assert len(on_base) == len(set(on_base)) == (5 + 9) * 4   # 4 (x, s y) per x
    assert len(deformed) == len(set(deformed)) == 9 * 3
    # at each x, 1/D and 1/D^2 of g = 4/D, D = (1 + |x|^2)^2, 1/g of the
    # three equal pivots, and 1/sigma of the two sigmas that read x
    assert len(reciprocals) == len(set(reciprocals)) == 9 * 5


def test_reports_built_in_blocks_are_those_built_point_by_point(monkeypatch, capsys):
    # the frames of a block come from one evaluation on block jets; with
    # every frame built on its own the reports are the same bytes
    specs = [("evaluate", "--spray", "sphere(n=3,kappa=1)", "--points", "20"),
             ("evaluate", "--spray", "sphere(n=2,kappa=1)", "--order", "3",
              "--points", "9"),
             ("verify", "--spray", "randers(a11=1+x2^2,a22=1+x1^2,a12=x1*x2/2,"
              "b1=0.2*x2,b2=-0.1*x1,box=0.8)", "--points", "9"),
             ("verify", "--spray", "example72(A=x1,B=x2^2,C=x1*x2,D=1+x1,f=x1*x2)",
              "--points", "9")]
    for spec in specs:
        blocks = run_cli(*spec, "--seed", "4", capsys=capsys)
        with monkeypatch.context() as m:
            m.setattr(sc, "BLOCK_BUILD_POINTS", 10 ** 9)
            alone = run_cli(*spec, "--seed", "4", capsys=capsys)
        assert blocks[0] == 0 and blocks == alone, spec


def test_a_singular_metric_mid_block_is_the_block_s_first_error():
    # point 3 of a block of 8 has a singular g, and point 6 leaves the
    # domain of log in g: the block build fails, and its points, built one
    # by one, name point 3's failure, as a run point by point would.
    # Nothing of the failed block is kept: the frames of points 0-2 only.
    from spraylab import exprdsl
    from spraylab.jets import JetDomainError
    g = {(1, 1): "(x1 - 0.25)^2", (2, 2): "1 + log(0.45 - x2)^2", (3, 3): "1"}
    spray = sc.SprayChart(3, sc.metric_spray_fn(sc._normalize_metric(g, 3), 3),
                          sc.Box.cube(3, 1.0), "mid-block")
    x1 = (-0.4, -0.3, -0.2, 0.25, 0.1, 0.2, 0.3, 0.4)
    x2 = (0.0, 0.1, 0.2, 0.3, 0.1, 0.2, 0.5, 0.0)
    pts = [sc.PointTM((a, b, -0.2), (1.0, 0.5, 0.25)) for a, b in zip(x1, x2)]
    tried, make = [], sc.SprayChart._coefficient_jets

    def counted(self, xy, order):
        tried.append(len(np.atleast_2d(xy)))
        return make(self, xy, order)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc.SprayChart, "_coefficient_jets", counted)
        with pytest.raises(JetDomainError) as info:
            list(spray.frames(pts, 4))
    assert str(info.value) == f"metric g_ij is singular at x = {pts[3].x}"
    assert tried == [8, 1, 1, 1, 1]
    assert sorted(spray._frames) == sorted((p.x, p.y) for p in pts[:3])
    # the later point fails on its own the other way
    with pytest.raises(exprdsl.ExprDomainError, match="log of non-positive"):
        spray.frame(pts[6], 4)


def test_verify_builds_one_frame_per_spray_and_point(monkeypatch, capsys):
    # each spray keeps one frame per (x, y), and the suite asks for its top
    # order first: no point of the base, shifted or deformed sprays gets a
    # second frame.  Before, every order asked below the top was a frame of
    # its own, a prefix slice of the top one.
    from collections import Counter
    from spraylab import projective as pj
    built, init = Counter(), sc.Frame.__init__

    def counted(self, spray, point, order):
        built[spray, point.x, point.y] += 1
        init(self, spray, point, order)

    monkeypatch.setattr(sc.Frame, "__init__", counted)
    code, out, _ = run_cli("verify", "--spray", "sphere(n=3,kappa=1)", "--points",
                           "1", "--seed", "3", capsys=capsys)
    assert code == 0 and json.loads(out)["rows"]
    assert set(built.values()) == {1}, built
    # the base spray, the shifted spray G + P y and the three deformed ones
    sprays = {spray for spray, _x, _y in built}
    deformed = [s for s in sprays if isinstance(s, pj.DeformedSpray)]
    assert len(sprays) == 5 and len(deformed) == 3, sprays
    assert {type(s) for s in sprays} == {sc.SprayChart, pj.DeformedSpray}


def test_each_frame_reads_one_table_of_g(monkeypatch, capsys):
    # a frame, or a block, reads one table of G's partials, at its own order,
    # and every lower order is a leading table of it (`Frame._gt`)
    frames, reads = {}, []
    init, block, table = sc.Frame.__init__, sc.Frame.block, sc.Frame.table

    def built(self, *args):
        init(self, *args)
        frames[id(self.G)] = self

    def stacked(points, order):
        fr = block(points, order)
        frames[id(fr.G)] = fr
        return fr

    monkeypatch.setattr(sc.Frame, "__init__", built)
    monkeypatch.setattr(sc.Frame, "block", stacked)
    monkeypatch.setattr(sc.Frame, "table", staticmethod(
        lambda arr, k, *lead: reads.append((arr, k)) or table(arr, k, *lead)))
    randers2 = ("randers(a11=1+x2^2,a22=1+x1^2,a12=x1*x2/2,b1=0.2*x2,"
                "b2=-0.1*x1,box=0.8)")
    # G's tables are read on blocks (S too, off a block's N_values); only the
    # mean-Cartan chi route of a metric's spray reads them on a point's frame.
    # verify's blocks are of orders 1 (G + P y), 3 (the deformed sprays and
    # (x, s y)) and 4 (the base spray); evaluate's of its order
    for argv, leads, depths in (
            (("verify", "--spray", "sphere(n=4,kappa=1)", "--points", "2"), {1},
             {1, 3, 4}),
            (("verify", "--spray", randers2, "--points", "2"), {0, 1}, {1, 3, 4}),
            (("evaluate", "--spray", "sphere(n=3,kappa=1)", "--points", "10"), {1},
             {4})):
        frames.clear()
        reads.clear()
        code, _, _ = run_cli(*argv, "--seed", "3", capsys=capsys)
        assert code == 0, argv
        orders = {}     # frame -> the orders k of its `table(G, k)` reads
        for arr, k in reads:
            fr = frames.get(id(arr))
            if fr is not None and fr.G is arr:
                orders.setdefault(fr, []).append(k)
        assert {fr.lead for fr in orders} == leads, argv
        assert {fr.order for fr in orders} == depths, argv
        for fr, ks in orders.items():
            assert ks == [fr.order], (argv, fr.spray, fr.lead, ks)


def test_unknown_tolerance_id_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--spray", "flat", "--tol", "bogus=1"])
    capsys.readouterr()
    # a tolerance must be a finite number > 0, in either format
    for value in ("nan", "-1", "inf", "0", "x"):
        for fmt in ("json", "text"):
            with pytest.raises(SystemExit) as info:
                cli.main(["verify", "--spray", "flat", "--points", "1",
                          "--format", fmt, "--tol", f"homogeneity={value}"])
            assert info.value.code == 2
            err = capsys.readouterr().err
            assert "bad tolerance value" in err and "config.tol" not in err
