"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from spraylab import (cli, curvature, exprdsl, finsler, jets,  # noqa: E402
                      projective, report, spray_core, verify)

MODULES = (cli, curvature, exprdsl, finsler, jets, projective, report,
           spray_core, verify)


# -- self time ------------------------------------------------------------------

SPANS = [
    ["cli.main", 0.0, 10.0, -1],
    ["verify.four-index", 1.0, 6.0, 0],
    ["verify.bianchi-second", 2.0, 5.0, 1],
    ["spray_core.cov_h", 2.5, 4.0, 2],
    ["report.render", 7.0, 8.0, 0],
    ["spray_core.tensor.R4", 8.5, 9.0, 0],
]


def test_self_time_subtracts_child_coverage():
    assert tracer.self_times(SPANS) == pytest.approx(
        [10 - 5 - 1 - 0.5, 5 - 3, 3 - 1.5, 1.5, 1.0, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [["a", 0.0, 4.0, -1], ["b", 1.0, 3.0, 0], ["c", 2.0, 5.0, 0]]
    assert tracer.self_times(spans)[0] == pytest.approx(4.0 - 3.0)


def test_layer_metrics_of_a_synthetic_trace():
    trace = {"spans": SPANS, "counts": {"verify.rows": 7},
             "jet_ops": {"mul.d8o5": 3, "mul.d8o4": 2, "d.d8o5": 1}}
    m = tracer.layer_metrics(trace)
    assert m["cli.self_s"] == pytest.approx(3.5)
    assert m["verify.four-index_s"] == pytest.approx(5.0)
    assert m["verify.bianchi-second_s"] == pytest.approx(3.0)
    assert m["spray_core.cov_h_s"] == pytest.approx(1.5)
    assert m["spray_core.s"] == pytest.approx(2.0)
    assert m["spray_core.cov_h.calls"] == 1
    assert m["jets.mul.calls"] == 5 and m["jets.d.calls"] == 1
    assert m["verify.rows"] == 7


def test_combine_sums_runs_and_takes_the_live_frame_maximum():
    a = {"spray_core.frame.calls": 10, "spray_core.frame.hits": 6,
         "spray_core.frames_live_max": 4, "verify.rows": 3}
    b = {"spray_core.frame.calls": 10, "spray_core.frame.hits": 8,
         "spray_core.frames_live_max": 9, "verify.rows": 5}
    out = tracer.combine([a, b])
    assert out["spray_core.frame_hit_ratio"] == pytest.approx(0.7)
    assert out["spray_core.frames_live_max"] == 9
    assert out["verify.rows"] == 8
    assert "spray_core.frame.hits" not in out


# -- scaling to the reference core ----------------------------------------------

def test_clock_scales_by_the_mean_of_the_bracketing_calibrations(monkeypatch):
    times = iter([0.10, 0.30, 0.05])
    monkeypatch.setattr(run, "calibrate", lambda: next(times))
    clock = run.Clock()
    assert clock.scale(2.0) == pytest.approx(2.0 * run.CAL_REF_S / 0.20)
    assert clock.scale(1.0) == pytest.approx(1.0 * run.CAL_REF_S / 0.175)
    assert clock.calibrations == [0.10, 0.30, 0.05]


def test_a_sliced_child_is_paused_between_slices_and_runs_to_its_exit(
        tmp_path):
    busy = ("import time\nt = time.process_time()\n"
            "while time.process_time() - t < 0.7:\n    pass\n")
    clock = run.Clock()
    child = run.run_child(["-c", busy], tmp_path, "busy", clock)
    assert child.rc == 0
    assert len(clock.calibrations) >= 3      # stopped at least once
    assert child.wall >= 0.7 and child.scaled > 0


# -- wrappers ---------------------------------------------------------------------

def _classes():
    out = [spray_core.Frame, spray_core.SprayChart, jets.Jet,
           verify.SuiteRunner]
    for mod in (curvature, projective, finsler):
        out += tracer._public_classes(mod)
    return out


def _snapshot():
    snap = {}
    for owner in MODULES + tuple(_classes()):
        for k, v in vars(owner).items():
            snap[(owner, k)] = v
            if isinstance(v, cached_property):
                snap[(v, "func")] = v.func
    return snap


def test_install_then_restore_puts_every_original_back():
    before = _snapshot()
    tr = tracer.Tracer("t")
    tracer.install(tr)
    try:
        assert tr.missing == []
        patched = _snapshot()
        assert any(patched[k] is not v for k, v in before.items())
    finally:
        tr.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


def test_only_the_outermost_evaluate_is_counted():
    ast = exprdsl.parse("sin(x1*x2) + (x1 + 2)^3 / (1 + x2^2)", 2)
    env = jets.lift_point([0.3, 0.4, 1.0, 0.5], 2)
    tr = tracer.Tracer("t")
    tracer.install(tr)
    try:
        exprdsl.evaluate(ast, env)
        exprdsl.evaluate_many([ast, ast], env)
    finally:
        tr.restore()
    m = tracer.layer_metrics(tr.as_dict())
    assert m["exprdsl.evaluate.calls"] == 3
    assert m["jets.mul.calls"] > 0


def test_traced_frames_are_counted_per_build_and_hit():
    spray = spray_core.make_family("flat", n=2)
    p = spray_core.sample_points(spray, 1, seed=0)[0]
    tr = tracer.Tracer("t")
    tracer.install(tr)
    try:
        spray.frame(p, 2)
        spray.frame(p, 2)
        curvature.chi_definition(spray, p)
    finally:
        tr.restore()
    m = tracer.combine([tracer.layer_metrics(tr.as_dict())])
    assert m["spray_core.frame.calls"] == 3
    assert m["spray_core.frames_built"] == 2
    assert m["spray_core.frame_hit_ratio"] == pytest.approx(1 / 3)


def test_a_hook_without_target_fails_the_traced_run(tmp_path, monkeypatch):
    monkeypatch.delattr(verify.SuiteRunner, "_volume_rows")
    tr = tracer.Tracer("t")
    tracer.install(tr)
    tr.restore()
    path = tmp_path / "trace.json"
    tr.write(path)
    trace, problems = check.check_trace(path)
    assert trace is not None
    assert problems == ["hook target missing: SuiteRunner._volume_rows"]


# -- output check -------------------------------------------------------------------

def _verify_doc(ref):
    return {"config": {"command": "verify"},
            "classification": dict(ref["classification"]),
            "rows": [{"id": i, "pass": p, "applicable": a}
                     for i, p, a in ref["rows"]]}


def test_check_rejects_one_flipped_row_status(tmp_path):
    wl = workloads.WORKLOADS["verify-sphere4"]
    ref = check.load_reference(wl.name)["runs"][0]
    inv = wl.invocations[0]
    doc = _verify_doc(ref)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert check.check_run(inv, 0, path, ref) == []
    flip = next(r for r in doc["rows"] if r["pass"] is True)
    flip["pass"] = False
    path.write_text(json.dumps(doc))
    problems = check.check_run(inv, 0, path, ref)
    assert len(problems) == 1 and flip["id"] in problems[0]


def test_check_rejects_an_unexpected_exit_code(tmp_path):
    wl = workloads.WORKLOADS["verify-zoo2d"]
    ref = check.load_reference(wl.name)["runs"][0]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(_verify_doc(ref)))
    assert check.check_run(wl.invocations[0], 1, path, ref)


def test_check_compares_evaluate_tables_with_the_closed_form(tmp_path):
    wl = workloads.WORKLOADS["evaluate-sphere3"]
    inv = wl.invocations[0]
    ref = check.load_reference(wl.name)["runs"][0]
    name, params = cli._parse_family_spec(inv.spray)
    spray = cli._build_spray(name, params)
    points = []
    for p in spray_core.sample_points(spray, inv.points, seed=5):
        q = check.sphere_oracle(p.x, p.y, spray.n, float(params["kappa"]),
                                inv.sigmas)
        q = {k: (v if k == "S" else np.asarray(v).tolist())
             for k, v in q.items()}
        points.append({"x": list(p.x), "y": list(p.y), "quantities": q})
    doc = {"config": {"command": "evaluate"},
           "classification": dict(ref["classification"]), "points": points}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert check.check_run(inv, 0, path, ref) == []
    points[-1]["quantities"]["R"][0][1] += 1e-6
    path.write_text(json.dumps(doc))
    problems = check.check_run(inv, 0, path, ref)
    assert len(problems) == 1 and problems[0].startswith("R ")


# -- spec data ------------------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_spec_and_within_the_contract():
    spec = workloads.spec()
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in spec["end_to_end"])} \
        in spec["end_to_end"]
