"""Output check of one CLI run against the reference outcomes.

The references in ``reference/`` were taken at the seed commit with
``make_reference.py``.  They hold what does not depend on the sampling seed:

* verify: the exit code, the classification flags, and each row's ``id``,
  ``pass`` and ``applicable``;
* evaluate: the exit code, the classification flags, the quantity names, and
  a tolerance.  Every quantity table at every sampled point is compared with
  the closed form of the constant-curvature sphere within that tolerance, so
  the check holds for any seed.

Residual values and JSON bytes are deliberately not compared: roundoff-level
changes are legal.  A traced run also fails when a hook of ``tracer.py`` found
no target.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FLAGS = ("isotropic", "scalar_curvature", "chi_zero")

# gradient of log(sigma) for the volume densities the evaluate workload uses
SIGMA_DLOG = {
    "1": lambda x: np.zeros_like(x),
    "exp(x1)": lambda x: np.eye(len(x))[0],
}


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def outcome(doc: dict) -> dict:
    """The seed-independent part of a report."""
    out = {"classification": {k: doc["classification"][k] for k in FLAGS}}
    if doc["config"]["command"] == "verify":
        out["rows"] = [[r["id"], r["pass"], r["applicable"]]
                       for r in doc["rows"]]
    else:
        out["quantities"] = sorted(doc["points"][0]["quantities"])
    return out


def sphere_oracle(x, y, n: int, kappa: float, sigmas) -> dict:
    """Closed-form evaluate tables of 4 delta / (1 + kappa |x|^2)^2.

    The metric is e^{2 phi} delta with constant sectional curvature kappa, so
    G^i = (dphi.y) y^i - |y|^2 dphi_i / 2 and R^i_k = kappa e^{2 phi}
    (|y|^2 delta^i_k - y^i y^k); chi, T, W and eta vanish, and
    S = dG^m/dy^m - y.dlog(sigma) = n dphi.y - y.dlog(sigma).
    """
    x, y = np.asarray(x, float), np.asarray(y, float)
    den = 1.0 + kappa * (x @ x)
    dphi = -2.0 * kappa * x / den
    e2 = 4.0 / den ** 2
    py, yy, eye = dphi @ y, y @ y, np.eye(n)
    ric = (n - 1) * kappa * e2 * yy
    return {
        "G": py * y - 0.5 * yy * dphi,
        "N": np.outer(y, dphi) + py * eye - np.outer(dphi, y),
        "R": kappa * e2 * (yy * eye - np.outer(y, y)),
        "Ric_jl": (n - 1) * kappa * e2 * eye,
        "Ric": ric,
        "R_scalar": ric / (n - 1),
        "chi": np.zeros(n),
        "T": np.zeros((n, n)),
        "W": np.zeros((n, n)),
        "eta": np.zeros(n),
        "S": {s: n * py - y @ SIGMA_DLOG[s](x) for s in sigmas},
    }


def deviation(got, want) -> float:
    """|got - want| scaled like the library's rel_residual."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        return float("inf")
    return float(np.abs(got - want).max() / (1.0 + np.abs(want).max()))


def oracle_deviations(doc: dict, inv) -> dict:
    """Largest deviation from the sphere closed form, per quantity."""
    from spraylab import cli
    _name, params = cli._parse_family_spec(inv.spray)
    n, kappa = int(params["n"]), float(params["kappa"])
    worst = {}
    for pt in doc["points"]:
        want = sphere_oracle(pt["x"], pt["y"], n, kappa, inv.sigmas)
        got = pt["quantities"]
        for key, ref in want.items():
            if key == "S":
                d = max((deviation(got["S"][s], v) if s in got["S"]
                         else float("inf")) for s, v in ref.items())
            else:
                d = deviation(got[key], ref)
            worst[key] = max(worst.get(key, 0.0), d)
    return worst


def check_run(inv, rc: int, report_path, ref: dict) -> list:
    """Problems found in one CLI run; an empty list means it passed."""
    if rc != ref["exit_code"]:
        return [f"exit code {rc}, expected {ref['exit_code']}"]
    try:
        doc = json.loads(Path(report_path).read_text(encoding="utf-8"))
        got = outcome(doc)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        return [f"unreadable report: {e!r}"]
    problems = []
    if got["classification"] != ref["classification"]:
        problems.append(f"classification {got['classification']} != "
                        f"{ref['classification']}")
    if inv.command == "verify":
        want = ref["rows"]
        if [r[0] for r in got["rows"]] != [r[0] for r in want]:
            problems.append("row ids differ from the reference")
        else:
            problems += [f"row {w[0]}: pass/applicable {g[1:]} != {w[1:]}"
                         for g, w in zip(got["rows"], want) if g != w]
        return problems
    if len(doc["points"]) != inv.points:
        problems.append(f"{len(doc['points'])} points, expected {inv.points}")
    if any(sorted(p["quantities"]) != ref["quantities"] for p in doc["points"]):
        problems.append("quantity names differ from the reference")
        return problems
    for key, d in oracle_deviations(doc, inv).items():
        if not d <= ref["tolerance"]:
            problems.append(f"{key} deviates from the closed form by {d:.3e}")
    return problems


def check_trace(path) -> tuple:
    """The trace of one traced run and the problems found in it.  A hook
    whose target is gone would make its metrics read 0, which looks like a
    gain, so it fails the run until the benchmark follows the code."""
    try:
        trace = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return None, [f"unreadable trace: {e!r}"]
    return trace, [f"hook target missing: {m}" for m in trace["missing"]]
