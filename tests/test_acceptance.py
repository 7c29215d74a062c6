"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the pass/fail lines.
The sample protocol is fixed: 50 seeded points per suite, dimensions 2 and 3,
volume forms {1, exp(x1), 1 + 0.5 x1^2}.
"""

import time

import numpy as np
import pytest

from spraylab import cli
from spraylab import curvature as cv
from spraylab import exprdsl, jets
from spraylab import finsler as fl
from spraylab import projective as pj
from spraylab import spray_core as sc
from spraylab import verify
from spraylab.spray_core import Box, ExpressionSpray, make_family, \
    sample_points

import exprgen
import oracles

SEED = 20250810
POINTS = 50
SIGMAS = ["1", "exp(x1)", "1+0.5*x1^2"]

A_CURVED = {(1, 1): "1+x2^2", (2, 2): "1+x1^2", (1, 2): "x1*x2/2"}
B_SMALL = {1: "0.2*x2", 2: "-0.1*x1"}
EX72 = dict(A="x1", B="x2^2", C="x1*x2", D="1+x1", f="x1*x2")


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def zoo():
    sprays = [
        make_family("flat", n=2),
        make_family("riemannian", g=A_CURVED, n=2),
        make_family("sphere", n=3, kappa=1.0),
        make_family("example72", **EX72),
        make_family("randers", a=A_CURVED, b=B_SMALL, n=2, box=0.8),
    ]
    return [(sp, sample_points(sp, POINTS, seed=SEED)) for sp in sprays]


@pytest.fixture(scope="module")
def randers_data():
    return fl.RandersData(A_CURVED, B_SMALL, 2, box=0.8)


def test_criterion_1_deformed_chi_vanishes(zoo):
    """Deformation by any volume form kills the chi-covector."""
    t0 = time.monotonic()
    worst = 0.0
    for sp, pts in zoo:
        for sig in SIGMAS:
            hat = pj.deform(sp, pj.VolumeForm(sig, sp.n))
            for p in pts:
                chi = cv.chi_definition(hat, p)
                scale = sp.frame(p, 3).R2_table[0]
                worst = max(worst, sc.rel_residual(chi, scale))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-7 and elapsed <= 10.0
    report("criterion 1 (deformed chi = 0)", ok,
           f"max residual {worst:.2e} (tol 1e-7) over 5 sprays x 3 volumes "
           f"x {POINTS} points in {elapsed:.1f}s (limit 10s)")


def test_criterion_2_chi_route_agreement(zoo, randers_data):
    """All chi routes agree pairwise; the metric route agrees more loosely."""
    routes = (cv.chi_definition, cv.chi_trace, cv.chi_local, cv.chi_from_t)
    worst = 0.0
    for sp, pts in zoo:
        for p in pts:
            vals = [r(sp, p) for r in routes]
            scale = sp.frame(p, 3).R2_table[0]
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    worst = max(worst, sc.rel_residual(vals[i] - vals[j],
                                                       vals[i], scale))
    metrics = [randers_data.metric(),
               fl.RandersData({(1, 1): "1", (2, 2): "1"},
                              {1: "-0.1*x2", 2: "0.1*x1"}, 2,
                              box=0.9).metric()]
    worst_cartan = 0.0
    for F in metrics:
        sp = fl.induced_spray(F)
        for p in sample_points(sp, POINTS, seed=SEED):
            a = fl.chi_cartan(F, p)
            b = cv.chi_definition(sp, p)
            scale = sp.frame(p, 3).R2_table[0]
            worst_cartan = max(worst_cartan, sc.rel_residual(a - b, b, scale))
    ok = worst <= 1e-8 and worst_cartan <= 1e-6
    report("criterion 2 (chi route agreement)", ok,
           f"spray routes pairwise {worst:.2e} (tol 1e-8); metric route "
           f"{worst_cartan:.2e} (tol 1e-6) on two induced sprays")


def test_criterion_3_bianchi_suites(zoo):
    """First and second Bianchi families plus the reconstruction identities."""
    first = {"bianchi-first", "berwald-symmetry", "berwald-y-contraction"}
    second = {"bianchi-second", "mixed-vertical", "berwald-vertical-symmetry",
              "bianchi-contracted", "bianchi-contracted-2"}
    recon = {"reconstruct-4from2", "contract-3idx", "contract-2idx"}
    worst = {"first": 0.0, "second": 0.0, "recon": 0.0}
    for sp, pts in zoo:
        rows = verify.run_suite(sp, pts, groups=("base", "four-index"))
        for r in rows:
            if r.id in first:
                worst["first"] = max(worst["first"], r.max_residual)
            elif r.id in second:
                worst["second"] = max(worst["second"], r.max_residual)
            elif r.id in recon:
                worst["recon"] = max(worst["recon"], r.max_residual)
    ok = (worst["first"] <= 1e-8 and worst["second"] <= 1e-7
          and worst["recon"] <= 1e-8)
    report("criterion 3 (Bianchi suites)", ok,
           f"first set {worst['first']:.2e} (tol 1e-8), second set "
           f"{worst['second']:.2e} (tol 1e-7), reconstruction "
           f"{worst['recon']:.2e} (tol 1e-8)")


def test_criterion_4_hat_riemann_formula(zoo):
    """Direct curvature of the deformed spray equals the closed formula."""
    worst = 0.0
    for sp, pts in zoo:
        dV = pj.VolumeForm("exp(x1)", sp.n)
        for p in pts:
            d = pj.hat_riemann(sp, dV, p, "direct")
            f = pj.hat_riemann(sp, dV, p, "formula")
            worst = max(worst, sc.rel_residual(d - f, d, f))
    ok = worst <= 1e-7
    report("criterion 4 (deformed curvature formula)", ok,
           f"direct vs formula {worst:.2e} (tol 1e-7), sigma = exp(x1)")


def test_criterion_5_projective_invariants(zoo):
    """Deformed T is Weyl; Douglas ignores the volume; deformation is
    projectively invariant."""
    worst_w = worst_d = worst_p = 0.0
    dv_pairs = [(pj.VolumeForm("1", 2), pj.VolumeForm("exp(x1)", 2)),
                (pj.VolumeForm("1", 3), pj.VolumeForm("exp(x1)", 3))]
    for sp, pts in zoo:
        dV1, dV2 = dv_pairs[0] if sp.n == 2 else dv_pairs[1]
        shifted = pj.with_projective_factor(sp, "0.3*y1 + 0.1*y2")
        worst_p = max(worst_p, pj.projective_invariance_check(
            sp, shifted, dV2, pts))
        for p in pts:
            w = cv.weyl(sp, p)
            th = pj.weyl_hat(sp, dV2, p)
            worst_w = max(worst_w, sc.rel_residual(th - w, w, th))
            d1 = pj.douglas(sp, dV1, p)
            d2 = pj.douglas(sp, dV2, p)
            worst_d = max(worst_d, sc.rel_residual(d1 - d2, d1, d2))
    ok = worst_w <= 1e-8 and worst_d <= 1e-8 and worst_p <= 1e-9
    report("criterion 5 (projective invariants)", ok,
           f"deformed-T vs Weyl {worst_w:.2e} (tol 1e-8), Douglas volume "
           f"independence {worst_d:.2e} (tol 1e-8), deformation invariance "
           f"{worst_p:.2e} (tol 1e-9)")


def test_criterion_6_polynomial_family_isotropic():
    """The 2D polynomial family has chi = 0 and isotropic curvature."""
    params = [dict(f="x1*x2"),
              dict(A="x1", B="x2^2", C="x1*x2", D="1+x1", f="x1*x2"),
              dict(A="sin(x1)", B="x1*x2", C="exp(x2/2)", D="x2^2",
                   f="x1^2*x2")]
    worst_chi = worst_t = 0.0
    for kw in params:
        sp = make_family("example72", **kw)
        for p in sample_points(sp, POINTS, seed=SEED):
            scale = sp.frame(p, 3).R2_table[0]
            chi = cv.chi_definition(sp, p)
            worst_chi = max(worst_chi, sc.rel_residual(chi, scale))
            T = cv.t_curvature(sp, p)
            worst_t = max(worst_t, sc.rel_residual(T, scale))
    ok = worst_chi <= 1e-9 and worst_t <= 1e-8
    report("criterion 6 (2D polynomial family)", ok,
           f"chi {worst_chi:.2e} (tol 1e-9), isotropy {worst_t:.2e} "
           f"(tol 1e-8) over three parameter sets")


def test_criterion_7_sphere_family():
    """Sphere chart at n = 3: Weyl, eta and the gradient identity vanish;
    n = 2 marks the dimension-bound rows not applicable."""
    sp = make_family("sphere", n=3, kappa=1.0)
    pts = sample_points(sp, POINTS, seed=SEED)
    worst_w = worst_e = worst_g = 0.0
    for p in pts:
        fr = sp.frame(p, 4)
        scale = fr.R2_table[0]
        worst_w = max(worst_w, sc.rel_residual(
            cv.weyl(sp, p), scale))
        etav = fr.rapcsak(fr.r_scalar, 0.5)
        worst_e = max(worst_e, sc.rel_residual(etav, scale))
        worst_g = max(worst_g, sc.rel_residual((3 - 2) * 2.0 * etav, scale))
    sp2 = make_family("sphere", n=2, kappa=1.0)
    rows = verify.run_suite(sp2, sample_points(sp2, 10, seed=SEED),
                            groups=("isotropic",))
    na = {r.id for r in rows if not r.applicable}
    ok = (worst_w <= 1e-8 and worst_e <= 1e-7 and worst_g <= 1e-7
          and {"isotropic-grad", "eta-isotropic"} <= na)
    report("criterion 7 (sphere family)", ok,
           f"n=3: Weyl {worst_w:.2e} (tol 1e-8), eta {worst_e:.2e} (tol 1e-7), "
           f"gradient identity {worst_g:.2e} (tol 1e-7); n=2 rows n/a: "
           f"{sorted(na)}")


def test_criterion_8_randers_identification(randers_data):
    """The closed-form Randers deformation is the volume deformation."""
    rd = randers_data
    sp = fl.induced_spray(rd.metric())
    dVa = rd.volume_alpha()
    hat_closed = rd.deformed_spray()
    hat = pj.deform(sp, dVa)
    worst_g = worst_s = 0.0
    for p in sample_points(sp, POINTS, seed=SEED):
        a = hat_closed.coefficients(p)
        b = np.array([sc.carrier_value(v) for v in
                      hat.eval_coefficients(list(p.x), list(p.y))])
        worst_g = max(worst_g, sc.rel_residual(a - b, a, b))
        worst_s = max(worst_s, abs(pj.s_curvature(hat, dVa, p)))
    ok = worst_g <= 1e-8 and worst_s <= 1e-9
    report("criterion 8 (Randers identification)", ok,
           f"closed form vs deformation {worst_g:.2e} (tol 1e-8), deformed "
           f"S-curvature {worst_s:.2e} (tol 1e-9)")


def test_criterion_9_s_closed_implies_chi(zoo):
    """Sprays passing the closedness test have chi = 0; the non-closed
    fixture is excluded by the hypothesis check."""
    worst = 0.0
    n_closed = 0
    for sp, pts in zoo:
        res = pj.s_closed_residual(sp, pts)
        if max(res["vertical_hessian"], res["curl"]) > 1e-8:
            continue
        n_closed += 1
        for p in pts:
            chi = cv.chi_definition(sp, p)
            worst = max(worst, sc.rel_residual(
                chi, sp.frame(p, 3).R2_table[0]))
    fixture = ExpressionSpray(2, [exprdsl.parse("x2*y1^2/2", 2),
                                  exprdsl.parse("0", 2)], Box.cube(2, 1.0),
                              "non-closed")
    fpts = sample_points(fixture, 10, seed=SEED)
    fres = pj.s_closed_residual(fixture, fpts)
    excluded = max(fres["vertical_hessian"], fres["curl"]) > 1e-8
    chi_fix = max(sc.rel_residual(
        cv.chi_definition(fixture, p),
        fixture.frame(p, 3).R2_table[0]) for p in fpts)
    ok = worst <= 1e-7 and excluded and n_closed >= 3 and chi_fix > 1e-3
    report("criterion 9 (closedness forces chi = 0)", ok,
           f"{n_closed} closed sprays with chi {worst:.2e} (tol 1e-7); "
           f"non-closed fixture excluded (curl {fres['curl_raw']:.2f}, its "
           f"chi residual {chi_fix:.2e})")


def test_criterion_10_engine_and_reports(capsys):
    """Jet partials vs Richardson differences, parser round-trips, and
    byte-identical reports."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 4))
        src = exprgen.gen_expr(rng, n, depth=3)
        ast = exprdsl.parse(src, n)
        z = exprgen.gen_point(rng, n)
        lifted = jets.lift_point(z, 2)
        j = jets.as_jet(exprdsl.evaluate(ast, lifted), lifted[0])
        slot = int(rng.integers(0, 2 * n))
        alpha = tuple(1 if s == slot else 0 for s in range(2 * n))
        fd = oracles.fd_partial(lambda zz: exprdsl.evaluate(ast, list(zz)), z,
                                slot)
        worst = max(worst, abs(j.partial(alpha) - fd) / (1.0 + abs(fd)))
    rng2 = np.random.default_rng(SEED + 1)
    rt_ok = True
    for _ in range(200):
        src = exprgen.gen_expr(rng2, 3, depth=4)
        ast = exprdsl.parse(src, 3)
        rt_ok = rt_ok and exprdsl.ast_equal(ast, exprdsl.parse(
            exprdsl.pretty(ast), 3))
    args = ["verify", "--spray", "example72(f=x1*x2)", "--points", "5",
            "--seed", "3"]
    cli.main(args)
    out1 = capsys.readouterr().out
    cli.main(args)
    out2 = capsys.readouterr().out
    deterministic = out1 == out2 and len(out1) > 0
    ok = worst <= 1e-7 and rt_ok and deterministic
    with capsys.disabled():
        report("criterion 10 (engine and reports)", ok,
               f"jet vs Richardson {worst:.2e} (tol 1e-7) on 100 expressions; "
               f"200 round-trips {'ok' if rt_ok else 'FAILED'}; reports "
               f"byte-identical: {deterministic}")
