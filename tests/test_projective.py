"""Volume forms, S-curvature, the deformation, and projective invariants."""

import numpy as np
import pytest

from spraylab import curvature as cv
from spraylab import exprdsl
from spraylab import projective as pj
from spraylab import spray_core as sc
from spraylab.spray_core import (PointTM, make_custom, make_family,
                                 sample_points)

import oracles

P2 = PointTM((0.1, -0.2), (0.7, 0.4))
P3 = PointTM((0.1, -0.2, 0.3), (0.5, -0.6, 0.4))

VOLUMES2 = ["1", "exp(x1)", "1+0.5*x1^2"]


@pytest.fixture(scope="module")
def flat2():
    return make_family("flat", n=2)


@pytest.fixture(scope="module")
def hand_fixture():
    return make_custom(doc=exprdsl.parse_spray_source(
               "dim = 2\nG1 = x2*y1^2/2\nG2 = 0"), label="hand-fixture")


@pytest.fixture(scope="module")
def sphere3():
    return make_family("sphere", n=3, kappa=1.0)


def sphere_metric_volume(n):
    r2 = "+".join(f"x{i}^2" for i in range(1, n + 1))
    conf = f"4/(1+{r2})^2"
    return pj.VolumeForm(f"({conf})*sqrt({conf})" if n == 3 else
                         f"sqrt(({conf})^{n})", n, label="dV_g")


def test_volume_form_validation():
    with pytest.raises(ValueError, match="x only"):
        pj.VolumeForm("y1", 2)
    v = pj.VolumeForm("x1", 2)
    with pytest.raises(Exception, match="not positive"):
        v.sigma([-1.0, 0.0, 0.0, 0.0])


def test_s_curvature_flat(flat2):
    assert pj.s_curvature(flat2, pj.VolumeForm.constant(2), P2) == 0.0
    # sigma = exp(x1) gives S = -y1
    assert pj.s_curvature(flat2, pj.VolumeForm("exp(x1)", 2), P2) == \
        pytest.approx(-P2.y[0], abs=1e-15)


def test_s_curvature_riemannian_metric_volume(sphere3):
    # with the metric's own volume the S-curvature of a metric spray vanishes
    dVg = sphere_metric_volume(3)
    for p in sample_points(sphere3, 10, seed=21):
        assert abs(pj.s_curvature(sphere3, dVg, p)) < 1e-13


def test_s_homogeneity(hand_fixture):
    dV = pj.VolumeForm("exp(x1)", 2)
    s = pj.s_curvature(hand_fixture, dV, P2)
    for lam in (0.5, 2.0, 3.0):
        ss = pj.s_curvature(hand_fixture, dV,
                            PointTM(P2.x, tuple(lam * v for v in P2.y)))
        assert ss == pytest.approx(lam * s, rel=1e-12)


def test_deform_flat_identity(flat2):
    hat = pj.deform(flat2, pj.VolumeForm.constant(2))
    assert np.all(hat.coefficients(P2) == 0.0)


def test_deform_flat_exp_closed_form(flat2):
    # S = -y1 and n + 1 = 3, so the deformed coefficients are G^i + y1 y^i / 3
    hat = pj.deform(flat2, pj.VolumeForm("exp(x1)", 2))
    y1, y2 = P2.y
    expect = np.array([y1 * y1 / 3.0, y1 * y2 / 3.0])
    assert np.abs(hat.coefficients(P2) - expect).max() < 1e-15
    hat.check_homogeneity(sample_points(hat, 10, seed=77))


def test_deformed_s_vanishes_and_chi_vanishes(hand_fixture, sphere3):
    for sp, pts in ((hand_fixture, sample_points(hand_fixture, 10, seed=31)),
                    (sphere3, sample_points(sphere3, 5, seed=32))):
        for sig in VOLUMES2:
            dV = pj.VolumeForm(sig, sp.n)
            hat = pj.deform(sp, dV)
            for p in pts[:5]:
                assert abs(pj.s_curvature(hat, dV, p)) < 1e-9
                chi = cv.chi_definition(hat, p)
                scale = sp.frame(p, 3).R2_table[0]
                assert sc.rel_residual(chi, scale) < 1e-7


def test_projective_invariance(flat2, hand_fixture):
    dV = pj.VolumeForm("exp(x1)", 2)
    pts = sample_points(flat2, 10, seed=41)
    # P = 0 leaves the deformation unchanged
    same = pj.with_projective_factor(flat2, "0")
    assert pj.projective_invariance_check(flat2, same, dV, pts) == 0.0
    # a genuine projective shift by a linear-in-y factor
    shifted = pj.with_projective_factor(flat2, "y1")
    assert pj.projective_invariance_check(flat2, shifted, dV, pts) < 1e-10
    shifted2 = pj.with_projective_factor(hand_fixture, "0.3*y1 + 0.1*y2")
    assert pj.projective_invariance_check(hand_fixture, shifted2, dV,
                                          sample_points(hand_fixture, 10,
                                                        seed=42)) < 1e-10
    # negative control: not a projective change
    unrelated = make_custom(doc=exprdsl.parse_spray_source(
                    "dim = 2\nG1 = y2^2\nG2 = 0"), label="unrelated")
    assert pj.projective_invariance_check(flat2, unrelated, dV, pts) > 1e-2
    with pytest.raises(ValueError, match="dimension"):
        pj.projective_invariance_check(flat2, make_family("sphere", n=3), dV,
                                       pts)


def test_hat_riemann_routes_and_regression(flat2, hand_fixture, sphere3):
    dV = pj.VolumeForm("exp(x1)", 2)
    prev = pj.hat_riemann(flat2, dV, P2, "direct")
    y1, y2 = P2.y
    # regression fixture (hand computation): R_hat = [[0, 0], [-y1 y2/9, y1^2/9]]
    expect = np.array([[0.0, 0.0], [-y1 * y2 / 9.0, y1 * y1 / 9.0]])
    assert np.abs(prev - expect).max() < 1e-14
    for sp, p in ((flat2, P2), (hand_fixture, P2), (sphere3, P3)):
        dv = pj.VolumeForm("exp(x1)", sp.n)
        d = pj.hat_riemann(sp, dv, p, "direct")
        f = pj.hat_riemann(sp, dv, p, "formula")
        assert sc.rel_residual(d - f, d, f) < 1e-7


def test_hat_riemann_randers_cross_route():
    from spraylab import finsler as fl
    rd = fl.RandersData({(1, 1): "1+x2^2", (2, 2): "1+x1^2", (1, 2): "x1*x2/2"},
                        {1: "0.2*x2", 2: "-0.1*x1"}, 2, box=0.8)
    sp = fl.induced_spray(rd.metric())
    dV = pj.VolumeForm("exp(x1)", 2)
    for p in sample_points(sp, 5, seed=43):
        d = pj.hat_riemann(sp, dV, p, "direct")
        f = pj.hat_riemann(sp, dV, p, "formula")
        assert sc.rel_residual(d - f, d, f) < 1e-7


def test_projective_ricci(sphere3, hand_fixture):
    # with the metric volume, tau = 0 and the projective Ricci equals Ricci
    dVg = sphere_metric_volume(3)
    out = pj.projective_ricci(sphere3, dVg, P3)
    assert out["tau"] == pytest.approx(0.0, abs=1e-13)
    base = sc.tensor_values(sphere3.frame(P3, 4).ric_jl)
    assert np.abs(out["ric_jl"] - base).max() < 1e-12
    # contraction consistency on a custom spray
    dV = pj.VolumeForm("exp(x1)", 2)
    for p in sample_points(hand_fixture, 10, seed=44):
        o = pj.projective_ricci(hand_fixture, dV, p)
        y = np.array(p.y)
        lhs = float(y @ o["ric_jl"] @ y)
        assert sc.rel_residual(lhs - o["ric"], o["ric_jl"]) < 1e-10


def test_projective_ricci_decomposition_nonquadratic():
    # Ric_hat_jl = Ric_jl + (n-1)/2 tau_{.j.l} - H_jl, exercised on a spray
    # whose chi has a genuinely nonzero symmetrized vertical hessian
    sp = make_custom(doc=exprdsl.parse_spray_source(
             "dim = 3\nG1 = y1^4/(y1^2+y2^2+y3^2)\nG2 = x1*y2^2\n"
             "G3 = x2*y3^2"), label="nonquad3")
    dV = pj.VolumeForm("exp(x1)", 3)
    n = 3
    out = pj.projective_ricci(sp, dV, P3)
    assert np.abs(out["h_jl"]).max() > 1e-2
    fr = sp.frame(P3, 4)
    tvv = pj.deform(sp, dV).tau(P3)[2][n:, n:]     # tau_{.j.l}
    expect = (sc.tensor_values(fr.ric_jl) + (n - 1) / 2.0 * tvv
              - out["h_jl"])
    assert sc.rel_residual(out["ric_jl"] - expect,
                           out["ric_jl"], expect) < 1e-12


def test_douglas_and_weyl_hat(sphere3, hand_fixture):
    # Riemannian sprays have vanishing Douglas curvature
    for dv_label in ("1", "exp(x1)"):
        dV = pj.VolumeForm(dv_label, 3)
        D = pj.douglas(sphere3, dV, P3)
        assert np.abs(D).max() < 1e-12
    # Douglas is independent of the volume form
    dV1 = pj.VolumeForm("1+0.5*x1^2", 2)
    dV2 = pj.VolumeForm("(1+0.5*x1^2)*exp(x1)", 2)
    for p in sample_points(hand_fixture, 10, seed=45):
        d1 = pj.douglas(hand_fixture, dV1, p)
        d2 = pj.douglas(hand_fixture, dV2, p)
        assert sc.rel_residual(d1 - d2, d1, d2) < 1e-10
        # T of the deformed spray equals the Weyl curvature of the base
        w = cv.weyl(hand_fixture, p)
        th = pj.weyl_hat(hand_fixture, dV1, p)
        assert sc.rel_residual(th - w, w, th) < 1e-10


def test_eta_hat_scalar_curvature_spray(sphere3):
    # sphere sprays have scalar curvature, so eta of the deformed spray
    # vanishes in dimension 3
    for sig in ("1", "exp(x1)"):
        dV = pj.VolumeForm(sig, 3)
        e = pj.eta_hat(sphere3, dV, P3)
        assert sc.rel_residual(e, sphere3.frame(P3, 3).R2_table[0]) < 1e-7


def test_eta_hat_against_fd_assembly(hand_fixture):
    # the deepest chain in the library (deform -> curvature scalar ->
    # horizontal covariant derivatives), re-assembled purely from nested
    # Richardson differences of the deformed scalar plus connection values
    import oracles
    dV = pj.VolumeForm("exp(x1)", 2)
    hat = pj.deform(hand_fixture, dV)
    p = P2
    n = 2
    z0 = np.array(p.x + p.y)

    def R(z):
        return cv.curvature_scalar(hat, PointTM((z[0], z[1]), (z[2], z[3])))

    N = sc.nonlinear_connection(hat, p)
    Gm = sc.berwald_connection(hat, p)
    Rv = np.array([oracles.fd_partial(R, z0, n + k) for k in range(n)])

    def rvk(z, k):
        return oracles.fd_partial(R, z, n + k)

    eta_fd = np.empty(n)
    for k in range(n):
        acc = 0.0
        for m in range(n):
            d_xm = oracles.fd_partial(lambda z: rvk(z, k), z0, m)
            d_yp = np.array([oracles.fd_partial(lambda z: rvk(z, k), z0, n + q)
                             for q in range(n)])
            acc += (d_xm - N[:, m] @ d_yp - Gm[:, k, m] @ Rv) * p.y[m]
        eta_fd[k] = 0.5 * acc - (oracles.fd_partial(R, z0, k) - N[:, k] @ Rv)
    eta_jet = pj.eta_hat(hand_fixture, dV, p)
    assert np.abs(eta_jet - eta_fd).max() < 1e-8
    # frozen regression values for this configuration
    assert np.abs(eta_jet - np.array([0.112 / 3, -0.196 / 3])).max() < 1e-12


def _direct_eta_hat(G, dV, p):
    """eta of the deformed spray from the jets of its own order-4 frame, which
    pulls an order-5 base frame (the reference route of `eta_hat`)."""
    fr = pj.deform(G, dV).frame(p, 4)
    return fr.rapcsak(fr.r_scalar, 0.5)


def test_eta_hat_matches_direct_route(hand_fixture, sphere3):
    ex = make_family("example72", A="x1", B="x2^2", C="x1*x2", D="1+x1",
                     f="x1*x2")
    sphere4 = make_family("sphere", n=4, kappa=1.0)
    largest = {}
    for sp in (sphere3, sphere4, ex, hand_fixture):
        for sig in ("exp(x1)", "1+0.5*x1^2"):
            dV = pj.VolumeForm(sig, sp.n)
            for p in sample_points(sp, 2, seed=53):
                e = pj.eta_hat(sp, dV, p)
                ref = _direct_eta_hat(sp, dV, p)
                assert sc.rel_residual(e - ref, e, ref) <= 1e-13, (sp.label, sig)
                largest[sp.label] = max(largest.get(sp.label, 0.0), np.abs(ref).max())
    # eta_hat is far from 0 off the sphere, so the agreement is not vacuous
    assert largest["example72"] > 1.0 and largest["hand-fixture"] > 0.01, largest


def test_projectively_flat_riemann_against_the_closed_form():
    # G^i = P y^i on the flat chart: the direct R2 of the shifted spray
    # against `oracles.projectively_flat_riemann`, P's partials taken
    # symbolically and evaluated on floats (no jets)
    src = "sqrt(y1^2+y2^2+y3^2)*x1/3 + (x2*y1 - x1*y3)/(2+x3) + 0.2*y2"
    sp = pj.with_projective_factor(sc.make_flat(3), src)
    P = exprdsl.parse(src, 3)
    dP = [exprdsl.differentiate(P, a) for a in range(6)]
    ddP = [[exprdsl.differentiate(dP[m], 3 + k) for k in range(3)] for m in range(3)]
    for p in sample_points(sp, 6, seed=1):
        z = list(p.x + p.y)

        def at(*asts):
            return [exprdsl.evaluate(e, z) for e in asts]

        want = oracles.projectively_flat_riemann(
            *at(P), at(*dP[:3]), at(*dP[3:]), [at(*row) for row in ddP], p.y)
        got = sc.riemann_two_index(sp, p)
        assert sc.rel_residual(got - want, want) <= 1e-12


def test_deformed_frames_lift_no_coordinates(monkeypatch):
    # a deformed frame reads G, S and y^i off the base frame one order
    # deeper: with those built, it lifts no coordinates of its own
    from spraylab import jets
    sp = make_family("sphere", n=4, kappa=1.0)
    p = sample_points(sp, 1, seed=3)[0]
    hat = pj.deform(sp, pj.VolumeForm("exp(x1)", 4))
    base = sp.frame(p, 4)
    hat.S(p, 4)
    base.xj, base.yj
    lifts, lift = [], jets.lift_point

    def counted(coords, order):
        lifts.append((coords, order))
        return lift(coords, order)

    monkeypatch.setattr(jets, "lift_point", counted)
    fr = hat.frame(p, 3)
    assert lifts == [] and fr.order == 3 and len(fr.G) == 4


def test_projectively_flat_spray_at_n3_with_chi():
    # G^i = P y^i on the flat chart: W = 0 and D = 0 while chi != 0, so the
    # deformed spray is isotropic with eta_hat = 0 although chi is large
    from spraylab import verify
    sp = pj.with_projective_factor(
        sc.make_flat(3), "sqrt(y1^2+y2^2+y3^2)*x1/3 + (x2*y1 - x1*y3)/(2+x3) + 0.2*y2")
    largest = 0.0
    for p in sample_points(sp, 6, seed=54):
        R = sp.frame(p, 3).R2_table[0]
        largest = max(largest, np.abs(cv.chi_definition(sp, p)).max())
        for sig in verify.DEFAULT_SIGMAS:
            dV = pj.VolumeForm(sig, 3)
            d = pj.hat_riemann(sp, dV, p, "direct")
            f = pj.hat_riemann(sp, dV, p, "formula")
            assert sc.rel_residual(d - f, d, f) <= 1e-12, sig
            assert sc.rel_residual(pj.eta_hat(sp, dV, p), R) <= 1e-12, sig
            assert sc.rel_residual(pj.weyl_hat(sp, dV, p), R) <= 1e-12, sig
    assert largest > 0.1, largest


def test_s_closed_residuals(hand_fixture, sphere3):
    ex = make_family("example72", f="x1*x2")
    res = pj.s_closed_residual(ex, sample_points(ex, 10, seed=46))
    assert res["vertical_hessian"] < 1e-12 and res["curl"] < 1e-12
    res_s = pj.s_closed_residual(sphere3, sample_points(sphere3, 5, seed=47))
    assert res_s["vertical_hessian"] < 1e-9 and res_s["curl"] < 1e-9
    # constructed counterexample: dPi/dy = (x2, 0) has x-curl exactly 1
    res_f = pj.s_closed_residual(hand_fixture,
                                 sample_points(hand_fixture, 5, seed=48))
    assert res_f["curl_raw"] == pytest.approx(1.0, abs=1e-12)
    assert res_f["curl"] > 0.3
    with pytest.raises(ValueError, match="non-empty"):
        pj.s_closed_residual(ex, [])


def test_s_closed_implies_chi_zero(sphere3):
    # every S-closed zoo spray must have chi = 0 within tolerance
    for sp in (make_family("flat", n=2), sphere3,
               make_family("example72", A="x1", B="x2^2", C="x1*x2",
                           D="1+x1", f="x1*x2")):
        pts = sample_points(sp, 10, seed=49)
        res = pj.s_closed_residual(sp, pts)
        assert max(res["vertical_hessian"], res["curl"]) <= 1e-8
        for p in pts:
            chi = cv.chi_definition(sp, p)
            assert sc.rel_residual(chi, sp.frame(p, 3).R2_table[0]) < 1e-7


def test_chi_via_s_route_and_orderings(hand_fixture):
    for sig in VOLUMES2:
        dV = pj.VolumeForm(sig, 2)
        a = pj.chi_via_s(hand_fixture, dV, P2, "vertical-first")
        b = pj.chi_via_s(hand_fixture, dV, P2, "horizontal-first")
        base = cv.chi_definition(hand_fixture, P2)
        assert np.abs(a - base).max() < 1e-13
        assert np.abs(a - b).max() < 1e-13
    with pytest.raises(ValueError, match="ordering"):
        pj.chi_via_s(hand_fixture, pj.VolumeForm.constant(2), P2, "sideways")


def _on_frame(src, fr):
    """The jet of the expression `src` at the frame's point."""
    return exprdsl.evaluate(exprdsl.parse(src, fr.n), fr.xj + fr.yj)


def test_rapcsak_residuals(flat2, sphere3):
    # the Euclidean norm is projectively equivalent to the flat spray
    fr = flat2.frame(P2, 3)
    r = fr.rapcsak(fr.table(_on_frame("sqrt(y1^2+y2^2)", fr), 2))
    assert np.abs(r).max() < 1e-14
    # negative control: Euclidean norm against the curved sphere spray
    fr = sphere3.frame(P3, 3)
    r2 = fr.rapcsak(fr.table(_on_frame("sqrt(y1^2+y2^2+y3^2)", fr), 2))
    assert np.abs(r2).max() > 1e-3


def test_dual_residual_of_curvature_scalar(sphere3):
    # for an isotropic spray in dimension 3 the curvature scalar R is dually
    # equivalent to the spray; on the unit sphere chart R has a closed form
    L = "4*(y1^2+y2^2+y3^2)/(1+x1^2+x2^2+x3^2)^2"
    for p in sample_points(sphere3, 5, seed=50):
        R = cv.curvature_scalar(sphere3, p)
        value = exprdsl.evaluate(exprdsl.parse(L, 3), list(p.x + p.y))
        assert abs(value - R) <= 1e-14 * (1.0 + abs(R))
        fr = sphere3.frame(p, 3)
        d = fr.rapcsak(fr.table(_on_frame(L, fr), 2), 0.5)
        assert sc.rel_residual(d, fr.R2_table[0]) < 1e-7


def test_rapcsak_of_abs_s_with_chi_zero():
    # with chi = 0, S_{.k|m} y^m - S_{|k} = 0 for every volume form, which is
    # the projective-equivalence residual of the would-be metric |S|
    ex = make_family("example72", A="x1", B="x2^2", C="x1*x2", D="1+x1",
                     f="x1*x2")
    for sig in VOLUMES2:
        dV = pj.VolumeForm(sig, 2)
        for p in sample_points(ex, 10, seed=52):
            chi_s = pj.chi_via_s(ex, dV, p)
            scale = ex.frame(p, 3).R2_table[0]
            assert sc.rel_residual(2.0 * chi_s, scale) < 1e-7
