"""Command-line interface: subcommands, exit codes, determinism, file I/O."""

import json
import time

import numpy as np
import pytest

from spraylab import cli


def run_cli(*argv, capsys=None):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


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


def test_verify_sphere_all_rows_pass(capsys):
    code, out, _ = run_cli("verify", "--spray", "sphere(n=3,kappa=1)",
                           "--points", "5", "--seed", "11", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert all(r["pass"] is not False for r in doc["rows"])
    applicable = [r for r in doc["rows"] if r["pass"] is not None]
    assert len(applicable) == len(doc["rows"])  # nothing n/a at n = 3 isotropic


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
    assert code == 2
    # malformed family parameters
    assert run_cli("evaluate", "--spray", "sphere(n=3", capsys=capsys)[0] == 2
    assert run_cli("evaluate", "--spray", "sphere(3)", capsys=capsys)[0] == 2
    # invalid --file sprays: not 2-homogeneous, and a Randers block with
    # |b|_a >= 1; both are bad input, reported without a traceback
    cubic = tmp_path / "cubic.spray"
    cubic.write_text("dim = 2\nG1 = y1^3\nG2 = 0\n")
    wide = tmp_path / "wide.spray"
    wide.write_text("dim = 2\na_11 = 1\na_22 = 1\nb_1 = 1.5\n")
    for path, msg in ((cubic, "2-homogeneity"), (wide, "|b|_a")):
        for command in ("evaluate", "verify"):
            code, _, err = run_cli(command, "--file", str(path), "--points",
                                   "2", capsys=capsys)
            assert code == 2
            assert err.startswith("error: ") and msg in err
            assert "Traceback" not in err


def test_exit_code_1_on_tolerance_failure(capsys):
    code, out, err = run_cli("verify", "--spray", "example72(f=x1*x2)",
                             "--points", "2", "--seed", "1", "--tol",
                             "deformed-chi-vanishes=1e-30", capsys=capsys)
    assert code == 1
    assert "deformed-chi-vanishes" in err


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


def test_unknown_tolerance_id_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--spray", "flat", "--tol", "bogus=1"])
    capsys.readouterr()
