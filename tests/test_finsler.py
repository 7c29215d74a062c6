"""Finsler layer: fundamental tensor, Cartan torsion, induced sprays, Randers."""

import itertools

import numpy as np
import pytest

from spraylab import curvature as cv
from spraylab import finsler as fl
from spraylab import jets
from spraylab import projective as pj
from spraylab import spray_core as sc
from spraylab.jets import JetDomainError
from spraylab.spray_core import Box, PointTM, make_family, sample_points

import oracles

P2 = PointTM((0.1, -0.2), (0.7, 0.4))

A_CURVED = {(1, 1): "1+x2^2", (2, 2): "1+x1^2", (1, 2): "x1*x2/2"}
B_SMALL = {1: "0.2*x2", 2: "-0.1*x1"}
A3 = {(1, 1): "1+x2^2", (2, 2): "2+x3^2", (3, 3): "1+x1^2/2", (1, 2): "x1*x3/3",
      (2, 3): "0.2*x1"}
B3 = {1: "0.2*x2", 2: "-0.1*x3", 3: "0.15*x1*x2"}


def _a_curved(x):       # A_CURVED, B_SMALL, A3 and B3 in jet arithmetic
    return [[1 + x[1] * x[1], x[0] * x[1] / 2], [x[0] * x[1] / 2, 1 + x[0] * x[0]]]


def _b_small(x):
    return [0.2 * x[1], -0.1 * x[0]]


def _a3(x):
    return [[1 + x[1] * x[1], x[0] * x[2] / 3, 0.0],
            [x[0] * x[2] / 3, 2 + x[2] * x[2], 0.2 * x[0]],
            [0.0, 0.2 * x[0], 1 + x[0] * x[0] / 2]]


def _b3(x):
    return [0.2 * x[1], -0.1 * x[2], 0.15 * x[0] * x[1]]


@pytest.fixture(scope="module")
def euclid():
    return fl.FinslerMetric("sqrt(y1^2+y2^2)", 2, label="euclid")


@pytest.fixture(scope="module")
def randers():
    return fl.RandersData(A_CURVED, B_SMALL, 2, box=0.8)


def test_fundamental_tensor_euclidean(euclid):
    g = fl.fundamental_tensor(euclid, P2)
    assert np.abs(g - np.eye(2)).max() < 1e-12
    C = fl.cartan_torsion(euclid, P2)
    assert np.abs(C).max() < 1e-12
    I = fl.mean_cartan(euclid, P2)
    assert np.abs(I).max() < 1e-12


def test_cartan_contraction_and_symmetry(randers):
    F = randers.metric()
    for p in sample_points(fl.induced_spray(F), 10, seed=61):
        C = fl.cartan_torsion(F, p)
        for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
            assert np.array_equal(C, C.transpose(perm))
        contr = np.einsum("ijk,k->ij", C, np.array(p.y))
        assert sc.rel_residual(contr, C) < 1e-10
        g = fl.fundamental_tensor(F, p)
        assert np.linalg.eigvalsh(g).min() > 0.0


def test_mean_cartan_against_fd(randers):
    # I_k = g^{ij} C_ijk with g and C assembled by finite differences of F^2
    F = randers.metric()
    from spraylab import exprdsl
    n = 2

    def L(z):
        return exprdsl.evaluate(F.L_ast, list(z))

    z0 = np.array(P2.x + P2.y)
    g = np.array([[0.5 * oracles.fd_second(L, z0, n + i, n + j, h=1e-2)
                   for j in range(n)] for i in range(n)])
    C = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                C[i, j, k] = 0.25 * oracles.fd_partial(
                    lambda z: oracles.fd_second(L, z, n + i, n + j, h=1e-2),
                    z0, n + k, h=1e-2)
    expect = np.einsum("ij,ijk->k", np.linalg.inv(g), C)
    got = fl.mean_cartan(F, P2)
    assert np.abs(got - expect).max() < 1e-5


def test_induced_spray_euclidean_is_flat(euclid):
    sp = fl.induced_spray(euclid)
    assert np.abs(sp.coefficients(P2)).max() < 1e-14


def test_induced_spray_matches_metric_family():
    r2 = "+".join(f"x{i}^2" for i in (1, 2, 3))
    F = fl.FinslerMetric(f"sqrt((4/(1+{r2})^2)*(y1^2+y2^2+y3^2))", 3,
                         domain=Box.cube(3, 0.3), label="sphere-norm")
    sp_f = fl.induced_spray(F)
    sp_r = make_family("sphere", n=3, kappa=1.0)
    for p in sample_points(sp_f, 10, seed=62):
        a = sp_f.coefficients(p)
        b = sp_r.coefficients(p)
        assert sc.rel_residual(a - b, a, b) < 1e-9


@pytest.mark.parametrize("a, b, a_jets, b_jets", [
    (A_CURVED, B_SMALL, _a_curved, _b_small), (A3, B3, _a3, _b3)],
    ids=["n2", "n3"])
def test_randers_spray_matches_the_closed_form(a, b, a_jets, b_jets):
    # the induced spray of F = alpha + beta, from F^2 through the DSL and a
    # linear solve, against G^i_alpha + (e_00/(2F) - s_0) y^i + alpha s^i_0;
    # values and every partial to order 4
    n = len(b)
    sp = fl.induced_spray(fl.RandersData(a, b, n, box=0.8).metric())
    for p in sample_points(sp, 3, seed=64):
        fr = sp.frame(p, 4)
        lift = jets.lift_point(p.x + p.y, 5)
        ref = np.array(oracles.randers_spray(a_jets, b_jets, lift[:n], lift[n:]),
                       dtype=object)
        for got, want in zip(fr.table(fr.G, 4), fr.table(ref, 4), strict=True):
            assert sc.rel_residual(got - want, want) <= 1e-12


def test_randers_spray_self_rapcsak(randers):
    # the induced spray of F satisfies F's own projective-equivalence residual
    F = randers.metric()
    sp = fl.induced_spray(F)
    for p in sample_points(sp, 5, seed=63):
        fr = sp.frame(p, 3)
        r = fr.rapcsak(fr.table(sc.ScalarField(F.ast, 2).jet(fr), 2))
        assert np.abs(r).max() < 1e-11


def test_metric_validation_rejects_degenerate():
    bad = fl.FinslerMetric("sqrt(y1^2)", 2, label="degenerate")
    # the degenerate fundamental tensor trips the condition-number guard
    with pytest.raises(JetDomainError, match="degenerate"):
        fl.mean_cartan(bad, P2)
    with pytest.raises(JetDomainError, match="degenerate"):
        fl.induced_spray(bad).coefficients(P2)


def test_chi_cartan_riemannian_is_zero():
    r2 = "+".join(f"x{i}^2" for i in (1, 2))
    F = fl.FinslerMetric(f"sqrt((4/(1+{r2})^2)*(y1^2+y2^2))", 2,
                         domain=Box.cube(2, 0.4), label="riem-norm")
    chi = fl.chi_cartan(F, P2)
    assert np.abs(chi).max() < 1e-10


def test_chi_cartan_matches_spray_routes(randers):
    F = randers.metric()
    sp = fl.induced_spray(F)
    for p in sample_points(sp, 10, seed=64):
        a = fl.chi_cartan(F, p)
        b = cv.chi_definition(sp, p)
        scale = sp.frame(p, 3).R2_table[0]
        assert sc.rel_residual(a - b, b, scale) < 1e-6


def test_chi_cartan_degree_one(randers):
    F = randers.metric()
    base = fl.chi_cartan(F, P2)
    for s in (0.5, 2.0):
        scl = fl.chi_cartan(F, PointTM(P2.x, tuple(s * v for v in P2.y)))
        assert np.abs(scl - s * base).max() <= 1e-7 * (1 + np.abs(base).max())


def test_randers_norm_bound_rejected():
    with pytest.raises(ValueError, match=">= 1"):
        fl.RandersData({(1, 1): "1", (2, 2): "1"}, {1: "1.2"}, 2)
    # an a_ij that is not positive definite is named with its point, before
    # it reaches the generated F expression
    with pytest.raises(ValueError, match=r"metric a_ij is not positive definite at x = \("):
        fl.RandersData({(1, 1): "-1", (2, 2): "1"}, {}, 2)
    with pytest.raises(ValueError, match="not positive definite"):
        fl.RandersData({(1, 1): "1", (2, 2): "1", (1, 2): "2"}, {1: "0.1"}, 2)


def test_randers_alpha_spray_has_one_owner():
    # the alpha spray is built once per RandersData, so `quantities`,
    # `hat_R` and `isotropy_residuals` at one point share one coefficient
    # evaluation: isotropy asks for the order-3 frame first, and `quantities`
    # reads the leading tables of that one frame
    rd = fl.RandersData(A_CURVED, B_SMALL, 2, box=0.8)
    alpha = rd.alpha_spray()
    assert rd.alpha_spray() is alpha
    pts = sample_points(alpha, 3, seed=70)
    rd.isotropy_residuals("1", pts)
    for p in pts:
        rd.quantities(p)
        rd.hat_R("1", p)
    built = list(alpha._frames.values())
    assert sorted(fr.point.x for fr in built) == sorted(p.x for p in pts), len(built)
    assert {fr.order for fr in built} == {3}


def test_randers_zero_one_form_reduces_to_riemannian():
    rd = fl.RandersData(A_CURVED, {}, 2, box=0.8)
    qt = rd.quantities(P2)
    for key in ("s", "q", "t", "s_j", "t_j"):
        assert np.abs(qt[key]).max() == 0.0
    hat = rd.deformed_spray()
    alpha = rd.alpha_spray()
    for p in sample_points(alpha, 5, seed=65):
        assert np.abs(hat.coefficients(p) - alpha.coefficients(p)).max() < 1e-14


def _cov_s_loops(rd, p):
    """b_{i|j}, s_{ij|k} and s^m_{j|m} by explicit loops over the Christoffels
    of a, the partials of b and s by `Jet.d` on jets of x alone."""
    from spraylab import exprdsl
    n, x, val = rd.n, list(p.x), sc.carrier_value
    xj = jets.lift_point(p.x, 2)
    _, s, s_up = rd._carrier_tensors(xj)
    b = [exprdsl.evaluate(rd.b_asts[i], xj) for i in range(n)]
    a = np.array([[val(exprdsl.evaluate(rd.a_asts[i][j], x)) for j in range(n)]
                  for i in range(n)])
    da = np.array([[[val(exprdsl.evaluate(exprdsl.differentiate(rd.a_asts[i][j], k),
                                          x))
                     for k in range(n)] for j in range(n)] for i in range(n)])
    Gm = np.linalg.solve(a, 0.5 * (da + da.transpose(0, 2, 1)
                                   - da.transpose(2, 1, 0)).reshape(n, -1))
    Gm = Gm.reshape(n, n, n)                         # Gm[i, j, k] = Gamma^i_jk
    b_v = sc.tensor_values(b)
    b_cov = np.empty((n, n))
    for i, j in itertools.product(range(n), repeat=2):
        v = val(b[i].d(j)) if isinstance(b[i], jets.Jet) else 0.0
        for m in range(n):
            v -= Gm[m][i][j] * b_v[m]
        b_cov[i, j] = v
    s_v = sc.tensor_values(s)
    sup_v = sc.tensor_values(s_up).T                 # s^i_j
    s_cov = np.empty((n, n, n))
    for i, j, k in itertools.product(range(n), repeat=3):
        v = val(s[i][j].d(k)) if isinstance(s[i][j], jets.Jet) else 0.0
        for m in range(n):
            v -= Gm[m][i][k] * s_v[m, j] + Gm[m][j][k] * s_v[i, m]
        s_cov[i, j, k] = v
    s_div = np.zeros(n)
    for j in range(n):
        for m in range(n):
            v = val(s_up[j][m].d(m)) if isinstance(s_up[j][m], jets.Jet) else 0.0
            for q in range(n):
                v += Gm[m][m][q] * sup_v[q, j] - Gm[q][j][m] * sup_v[m, q]
            s_div[j] += v
    return b_cov, s_cov, s_div


@pytest.mark.parametrize("a, b", [(A_CURVED, B_SMALL), (A3, B3)], ids=["n2", "n3"])
def test_finsler_tables_match_jet_references(a, b):
    # g and C read off the table of L = F^2 carry the bits of the iterated
    # Jet.d; the Randers covariant derivatives of b and s from Frame.cov_h
    # agree with the Christoffel loops, and those of s vanish exactly when
    # b = 0
    n = len(b)
    rd, rd0 = fl.RandersData(a, b, n, box=0.8), fl.RandersData(a, {}, n, box=0.8)
    F = rd.metric()
    for p in sample_points(fl.induced_spray(F), 10, seed=70):
        l2, l3 = F.l_jets(p, 2), F.l_jets(p, 3)
        g = np.empty((n, n))
        C = np.empty((n, n, n))
        for i, j in itertools.product(range(n), repeat=2):
            g[i, j] = 0.5 * sc.carrier_value(l2.d(n + min(i, j)).d(n + max(i, j)))
        for idx in itertools.product(range(n), repeat=3):
            i, j, k = sorted(idx)
            C[idx] = sc.carrier_value(0.25 * l3.d(n + i).d(n + j).d(n + k))
        assert fl.fundamental_tensor(F, p).tobytes() == g.tobytes()
        assert fl.cartan_torsion(F, p).tobytes() == C.tobytes()
        qt = rd.quantities(p)
        b_cov, s_cov, s_div = _cov_s_loops(rd, p)
        assert np.abs(qt["b_cov"] - b_cov).max() <= 1e-13
        assert np.abs(qt["s_cov"] - s_cov).max() <= 1e-13
        assert np.abs(qt["s_div"] - s_div).max() <= 1e-13
        assert np.abs(qt["s_cov"]).max() > 1e-3
        qt0 = rd0.quantities(p)
        assert np.abs(qt0["s_cov"]).max() == np.abs(qt0["s_div"]).max() == 0.0


def test_chi_cartan_takes_no_jet_work(randers, monkeypatch):
    # with the induced spray's order-3 frame and the order-5 jets of L
    # cached, chi_cartan works on float tables alone
    from collections import Counter
    F = randers.metric()
    (p,) = sample_points(fl.induced_spray(F), 1, seed=71)
    fl.induced_spray(F).frame(p, 3)
    F.l_jets(p, 5)
    counts, mul, d = Counter(), jets.Jet.__mul__, jets.Jet.d

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for attr in ("__mul__", "__rmul__"):
        monkeypatch.setattr(jets.Jet, attr, counted("mul", mul))
    monkeypatch.setattr(jets.Jet, "d", counted("d", d))
    fl.chi_cartan(F, p)
    assert counts == {}, counts


def test_l_jets_evaluates_L_once_per_point(randers, monkeypatch):
    # asked at orders 5, 3 and 2, L is evaluated once, at order 5; the lower
    # orders are slices with the bits of a fresh evaluation at their order
    from spraylab import exprdsl
    F = randers.metric()
    p, evaluate, calls = P2, exprdsl.evaluate, []

    def counted(ast, *args):
        calls.append(ast is F.L_ast)
        return evaluate(ast, *args)

    monkeypatch.setattr(exprdsl, "evaluate", counted)
    got = {k: F.l_jets(p, k) for k in (5, 3, 2)}
    assert calls.count(True) == 1
    monkeypatch.undo()
    for k, j in got.items():
        env = jets.lift_point(p.x + p.y, k)
        fresh = jets.as_jet(exprdsl.evaluate(F.L_ast, env), env[0])
        assert j.order == k and np.array_equal(j.coeffs, fresh.coeffs)


def test_randers_flat_alpha_constant_b():
    rd = fl.RandersData({(1, 1): "1", (2, 2): "1"}, {1: "0.3", 2: "0.1"}, 2)
    qt = rd.quantities(P2)
    assert np.abs(qt["b_cov"]).max() < 1e-14
    assert np.abs(qt["s"]).max() < 1e-14
    hat = rd.deformed_spray()
    assert np.abs(hat.coefficients(P2)).max() < 1e-14


def test_randers_rs_decomposition(randers):
    for p in sample_points(randers.alpha_spray(), 10, seed=66):
        qt = randers.quantities(p)
        assert np.abs(qt["b_cov"] - (qt["r"] + qt["s"])).max() < 1e-10
        assert np.abs(qt["r"] - qt["r"].T).max() < 1e-14
        assert np.abs(qt["s"] + qt["s"].T).max() < 1e-14
        # s_j and t_j reassemble from their definitions
        b_up = np.linalg.solve(qt["a"], qt["b"])
        assert np.abs(qt["s_j"] - b_up @ qt["s"]).max() < 1e-10
        assert np.abs(qt["t_j"] - b_up @ qt["t"]).max() < 1e-10
        assert np.abs(qt["q"] - qt["r"] @ qt["s_up"]).max() < 1e-12


def test_randers_closed_form_deformation(randers):
    # the closed-form spray G_alpha + alpha s^i_0 equals the projective
    # deformation of the induced Randers spray with the alpha-volume
    F = randers.metric()
    sp = fl.induced_spray(F)
    dVa = randers.volume_alpha()
    hat_closed = randers.deformed_spray()
    hat_deform = pj.deform(sp, dVa)
    for p in sample_points(sp, 20, seed=67):
        a = hat_closed.coefficients(p)
        b = np.array([sc.carrier_value(v) for v in
                      hat_deform.eval_coefficients(list(p.x), list(p.y))])
        assert sc.rel_residual(a - b, a, b) < 1e-8
        assert abs(pj.s_curvature(hat_deform, dVa, p)) < 1e-9


EPS = 0.1


@pytest.fixture(scope="module")
def witness():
    # rotational 1-form over a flat metric: both scalar-curvature conditions
    # hold exactly with constant kappa = 5 eps^2
    return fl.RandersData({(1, 1): "1", (2, 2): "1"},
                          {1: f"-{EPS}*x2", 2: f"{EPS}*x1"}, 2, box=0.9)


def test_randers_isotropy_witness(witness):
    pts = sample_points(witness.alpha_spray(), 10, seed=68)
    res = witness.isotropy_residuals(f"{5 * EPS ** 2}", pts)
    assert res["curvature_eq"] < 1e-14
    assert res["conservation_eq"] < 1e-14
    # negative control: the wrong kappa fails the curvature equation
    res_bad = witness.isotropy_residuals("0", pts)
    assert res_bad["curvature_eq"] > 1e-3


def test_randers_hat_R_matches_deformed_ricci(witness):
    kappa = f"{5 * EPS ** 2}"
    hat = witness.deformed_spray()
    pts = sample_points(hat, 10, seed=69)
    for p in pts:
        formula = witness.hat_R(kappa, p)
        direct = cv.ricci_scalar(hat, p) / (2 - 1)
        assert formula == pytest.approx(direct, rel=1e-10, abs=1e-12)
        # the deformed spray is of isotropic curvature
        T = cv.t_curvature(hat, p)
        assert sc.rel_residual(T, hat.frame(p, 3).R2_table[0]) < 1e-7


def test_randers_hat_R_general_instance(randers):
    # on a generic Randers instance the closed formula still reproduces
    # (n-1)^{-1} Ric of the deformed spray when the isotropy residuals are
    # small; here they are not, so just record that the formula evaluates
    p = P2
    val = randers.hat_R("1", p)
    assert np.isfinite(val)


def test_randers_modulated_near_witness():
    # radially modulated rotational 1-form: no constant kappa satisfies the
    # curvature condition exactly, but a desk-scale near-solution exists.
    # Recorded fixture: with kappa = 0.054 the curvature residual sits near
    # 3.1e-3 while the conservation condition still holds exactly, and the
    # closed-form curvature scalar tracks the deformed Ricci to the same
    # order as the isotropy defect.
    lam = "(1 + 0.05*(x1^2+x2^2))"
    rd = fl.RandersData({(1, 1): "1", (2, 2): "1"},
                        {1: f"-0.1*x2*{lam}", 2: f"0.1*x1*{lam}"}, 2, box=0.9)
    pts = sample_points(rd.alpha_spray(), 10, seed=68)
    res = rd.isotropy_residuals("0.054", pts)
    assert res["conservation_eq"] < 1e-14
    assert 1e-4 < res["curvature_eq"] < 1e-2
    hat = rd.deformed_spray()
    for p in pts[:5]:
        formula = rd.hat_R("0.054", p)
        direct = cv.ricci_scalar(hat, p)
        assert abs(formula - direct) / (1 + abs(direct)) < 1e-2
