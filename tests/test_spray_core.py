"""Connection and curvature tensors against independent oracles."""

import functools
import itertools
import math

import numpy as np
import pytest

from spraylab import exprdsl
from spraylab import spray_core as sc
from spraylab.spray_core import (Box, ExpressionSpray, PointTM, TensorField,
                                 make_family, sample_points)

import oracles

P2 = PointTM((0.1, -0.2), (0.7, 0.4))
A_CURVED = {(1, 1): "1+x2^2", (2, 2): "1+x1^2", (1, 2): "x1*x2/2"}
EX72 = dict(A="x1", B="x2^2", C="x1*x2", D="1+x1", f="x1*x2")


@pytest.fixture(scope="module")
def fixture_spray():
    # G^1 = x2 y1^2 / 2, G^2 = 0: curvature worked out by hand, Pi not closed
    return ExpressionSpray(2, [exprdsl.parse("x2*y1^2/2", 2),
                               exprdsl.parse("0", 2)], Box.cube(2, 1.0),
                           "hand-fixture")


@pytest.fixture(scope="module")
def curved_metric_spray():
    g = {(1, 1): "1+x2^2", (2, 2): "1+x1^2", (1, 2): "x1*x2/2"}
    return make_family("riemannian", g=g, n=2)


def metric_callable(g_asts, n):
    def g(x):
        env = list(x) + [0.0] * n
        return np.array([[exprdsl.evaluate(g_asts[i][j], env) for j in range(n)]
                         for i in range(n)])
    return g


def test_nonlinear_connection_flat():
    flat = make_family("flat", n=2)
    N = sc.nonlinear_connection(flat, P2)
    assert np.all(N == 0.0)


def test_nonlinear_connection_single_term():
    sp = ExpressionSpray(2, [exprdsl.parse("y1^2", 2), exprdsl.parse("0", 2)],
                         Box.cube(2, 1.0), "quad")
    N = sc.nonlinear_connection(sp, P2)
    fd = oracles.fd_partial(lambda z: sp.coefficients(PointTM(P2.x, (z[0], z[1])))[0],
                            P2.y, 0)
    assert N[0, 0] == pytest.approx(2 * P2.y[0], abs=1e-12)
    assert N[0, 0] == pytest.approx(fd, abs=1e-9)
    assert np.abs(N - np.array([[2 * P2.y[0], 0], [0, 0]])).max() < 1e-12


def test_euler_identity_on_sampled_points(curved_metric_spray):
    sp = curved_metric_spray
    for p in sample_points(sp, 20, seed=101):
        N = sc.nonlinear_connection(sp, p)
        G = sp.coefficients(p)
        assert np.abs(N @ np.array(p.y) - 2 * G).max() < 1e-12 * (1 + np.abs(G).max())


def test_berwald_connection_matches_christoffel_oracle(curved_metric_spray):
    g_asts = sc._normalize_metric({(1, 1): "1+x2^2", (2, 2): "1+x1^2",
                                   (1, 2): "x1*x2/2"}, 2)
    gamma_oracle = oracles.christoffel(metric_callable(g_asts, 2), P2.x)
    got = sc.berwald_connection(curved_metric_spray, P2)
    assert np.abs(got - gamma_oracle).max() < 1e-9
    # y-independence of the Riemannian Berwald connection
    other = sc.berwald_connection(curved_metric_spray,
                                  PointTM(P2.x, (0.2, -0.9)))
    assert np.abs(got - other).max() < 1e-12


def test_berwald_connection_symmetry_exact(fixture_spray):
    G = sc.berwald_connection(fixture_spray, P2)
    assert np.array_equal(G, G.transpose(0, 2, 1))


def test_berwald_curvature_zero_for_quadratic(fixture_spray,
                                              curved_metric_spray):
    for sp in (curved_metric_spray, make_family("example72", f="x1*x2")):
        B = sc.berwald_curvature(sp, P2)
        assert np.abs(B).max() < 1e-12


def test_berwald_curvature_contraction(curved_metric_spray):
    sp = make_family("randers", a={(1, 1): "1+x2^2", (2, 2): "1+x1^2"},
                     b={1: "0.2*x2"}, n=2, box=0.8)
    for p in sample_points(sp, 20, seed=33):
        B = sc.berwald_curvature(sp, p)
        contr = np.einsum("ijkl,j->ikl", B, np.array(p.y))
        assert sc.rel_residual(contr, B) < 1e-10


def test_horizontal_partial_examples(curved_metric_spray):
    flat = make_family("flat", n=2)
    # on f(x) = x1 the horizontal derivative reduces to d/dx1
    assert sc.horizontal_partial("x1", flat, P2, 0) == pytest.approx(1.0)
    # on f = y1 with a flat spray all horizontal derivatives vanish
    assert sc.horizontal_partial("y1", flat, P2, 0) == 0.0
    # on f = y1 over a curved metric spray it equals -N^1_k
    sp = make_family("sphere", n=2, kappa=1.0)
    q = sample_points(sp, 1, seed=4)[0]
    N = sc.nonlinear_connection(sp, q)
    for k in range(2):
        assert sc.horizontal_partial("y1", sp, q, k) == pytest.approx(
            -N[0, k], abs=1e-12)


def test_covariant_derivative_scalar_flat():
    flat = make_family("flat", n=2)
    td = sc.covariant_derivative_h(TensorField(np.array("3.5", dtype=object)
                                               .reshape(()), (), 2, "const"),
                                   flat, P2)
    assert np.all(td == 0.0)
    # S = -y1 on the flat spray: S_{|k} = 0
    td2 = sc.covariant_derivative_h(
        TensorField(np.array("-y1", dtype=object).reshape(()), (), 2, "S"),
        flat, P2)
    assert np.all(td2 == 0.0)


def test_covariant_derivative_covector_against_fd_assembly():
    # I_k of a Randers metric: assemble delta I_k/dx^p - I_m Gamma^m_kp by
    # finite differences and compare
    from spraylab import finsler as fl
    rd = fl.RandersData({(1, 1): "1+x2^2", (2, 2): "1+x1^2", (1, 2): "x1*x2/2"},
                        {1: "0.2*x2", 2: "-0.1*x1"}, 2, box=0.8)
    F = rd.metric()
    sp = fl.induced_spray(F)
    p = P2
    n = 2

    def I_at(z):
        return fl.mean_cartan(F, PointTM((z[0], z[1]), (z[2], z[3])))

    z0 = np.array(p.x + p.y)
    N = sc.nonlinear_connection(sp, p)
    Gm = sc.berwald_connection(sp, p)
    I0 = I_at(z0)
    dI = np.array([[oracles.fd_partial(lambda z: I_at(z)[k], z0, a)
                    for a in range(4)] for k in range(n)])
    expect = np.empty((n, n))
    for k in range(n):
        for pp in range(n):
            v = dI[k, pp] - sum(N[m, pp] * dI[k, n + m] for m in range(n))
            v -= sum(I0[m] * Gm[m, k, pp] for m in range(n))
            expect[k, pp] = v

    field = TensorField(np.array(
        [lambda xs, ys, k=k: _mean_cartan_jet(F, xs, ys, k) for k in range(n)],
        dtype=object), ("down",), 2, "I")
    got = sc.covariant_derivative_h(field, sp, p)
    assert np.abs(got - expect).max() < 1e-6


def _mean_cartan_jet(F, xs, ys, k):
    """Component k of the mean Cartan torsion as a jet at the point under xs, ys."""
    p = PointTM(tuple(sc.carrier_value(v) for v in xs),
                tuple(sc.carrier_value(v) for v in ys))
    return _jet_mean_cartan(F.l_jets(p, 5), F.n)[k]


def _jet_mean_cartan(lj, n):
    """I_k = g^{ij} C_ijk as jets, from the jet of L = F^2."""
    ginv = _jet_inverse([[0.5 * lj.d(n + i).d(n + j) for j in range(n)]
                         for i in range(n)])
    C = _jet_cartan(lj, n)
    return [sc.carrier_sum(ginv[i][j] * C[i, j, k]
                           for i, j in itertools.product(range(n), repeat=2))
            for k in range(n)]


def _jet_inverse(A):
    """Inverse of an n*n matrix of jets via the generic linear solve."""
    n = len(A)
    eye = [[1.0 if i == j else 0.0 for i in range(n)] for j in range(n)]
    cols = sc.solve_carrier(A, eye)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _jet_cartan(lj, n):
    """C_ijk = (1/4) d^3 L / dy^i dy^j dy^k as jets, from the jet of L = F^2."""
    C = np.empty((n, n, n), dtype=object)
    for i in range(n):
        di = lj.d(n + i)
        for j in range(i, n):
            dij = di.d(n + j)
            for k in range(j, n):
                v = 0.25 * dij.d(n + k)
                for perm in itertools.permutations((i, j, k)):
                    C[perm] = v
    return C


def test_covariant_derivative_mixed_tensor_against_fd():
    # a (1,1) field T^i_j = y^i b_j(x) over a curved metric spray: compare
    # T^i_{j|k} = delta T^i_j/dx^k + T^m_j Gamma^i_mk - T^i_m Gamma^m_jk
    # against a finite-difference assembly
    sp = make_family("sphere", n=2, kappa=1.0)
    p = P2
    n = 2
    b_src = ["1+x2", "x1*x2"]

    def t_comp(i, j):
        return lambda xs, ys, i=i, j=j: ys[i] * exprdsl.evaluate(
            exprdsl.parse(b_src[j], 2), list(xs) + list(ys))

    field = TensorField(np.array([[t_comp(i, j) for j in range(n)]
                                  for i in range(n)], dtype=object),
                        ("up", "down"), 2, "T")
    got = sc.covariant_derivative_h(field, sp, p)

    def t_val(z):
        env = list(z)
        return np.array([[z[n + i] * exprdsl.evaluate(exprdsl.parse(b_src[j], 2), env)
                          for j in range(n)] for i in range(n)])

    z0 = np.array(p.x + p.y)
    N = sc.nonlinear_connection(sp, p)
    Gm = sc.berwald_connection(sp, p)
    T0 = t_val(z0)
    dT = np.stack([oracles.fd_partial(t_val, z0, a) for a in range(2 * n)],
                  axis=-1)
    expect = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = dT[i, j, k] - sum(N[m, k] * dT[i, j, n + m] for m in range(n))
                v += sum(T0[m, j] * Gm[i, m, k] - T0[i, m] * Gm[m, j, k]
                         for m in range(n))
                expect[i, j, k] = v
    assert np.abs(got - expect).max() < 1e-8


def test_covariant_derivative_rejects_high_rank():
    with pytest.raises(ValueError, match="rank <= 2"):
        TensorField(np.empty((2, 2, 2), dtype=object),
                    ("up", "down", "down"), 2)


def test_frame_rejects_points_outside_domain():
    sp = make_family("sphere", n=2, kappa=1.0)  # box half-width ~0.706
    with pytest.raises(ValueError, match="outside the declared domain"):
        sc.riemann_two_index(sp, PointTM((0.9, 0.0), (1.0, 0.0)))


def test_riemann_two_index_flat_and_fixture(fixture_spray):
    flat = make_family("flat", n=2)
    assert np.all(sc.riemann_two_index(flat, P2) == 0.0)
    R = sc.riemann_two_index(fixture_spray, P2)
    y1, y2 = P2.y
    assert np.abs(R - np.array([[-y1 * y2, y1 * y1], [0.0, 0.0]])).max() < 1e-13


def test_riemann_two_index_sphere_constant_curvature():
    sp = make_family("sphere", n=3, kappa=1.0)
    for p in sample_points(sp, 5, seed=6):
        R = sc.riemann_two_index(sp, p)
        gv = 4.0 / (1.0 + sum(v * v for v in p.x)) ** 2
        y = np.array(p.y)
        expect = gv * float(y @ y) * np.eye(3) - np.outer(y, gv * y)
        assert sc.rel_residual(R - expect, R, expect) < 1e-12


def test_sphere_box_keeps_off_the_singular_sphere():
    # 4 delta_ij / (1 + kappa |x|^2)^2 blows up on |x|^2 = -1/kappa when
    # kappa < 0; boxes for kappa >= -1 are as they were
    for kappa in (-5.0, -1.5, -1.0, 0.5, 4.0):
        for n in (2, 3, 4):
            box = make_family("sphere", n=n, kappa=kappa).domain
            for corner in itertools.product(*zip(box.lo, box.hi)):
                assert 1.0 + kappa * sum(c * c for c in corner) > 0.0, (kappa, n)
            if kappa >= -1.0:
                assert box.hi[0] == 0.999 / math.sqrt(max(kappa, 1.0)) / math.sqrt(n)


def test_riemann_two_index_against_fd_oracle(fixture_spray):
    def coeff(x, y):
        return fixture_spray.coefficients(PointTM(tuple(x), tuple(y)))

    R_fd = oracles.spray_riemann_fd(coeff, P2.x, P2.y)
    R = sc.riemann_two_index(fixture_spray, P2)
    assert np.abs(R - R_fd).max() < 1e-7


def test_riemann_regression_polynomial_family_origin():
    # frozen regression value: with f = x1*x2 and A = B = C = D = 0, at
    # x = (0, 0), y = (1, 0) the only nonzero entry is R^1_2 = 1/3
    sp = make_family("example72", f="x1*x2")
    p = PointTM((0.0, 0.0), (1.0, 0.0))
    R = sc.riemann_two_index(sp, p)
    expect = np.array([[0.0, 1.0 / 3.0], [0.0, 0.0]])
    assert np.abs(R - expect).max() < 1e-14

    def coeff(x, y):
        return sp.coefficients(PointTM(tuple(x), tuple(y)))

    assert np.abs(oracles.spray_riemann_fd(coeff, p.x, p.y) - expect).max() < 1e-8


def test_riemann_four_index_matches_classical_oracle(curved_metric_spray):
    g_asts = sc._normalize_metric({(1, 1): "1+x2^2", (2, 2): "1+x1^2",
                                   (1, 2): "x1*x2/2"}, 2)
    oracle = oracles.riemann_classical(metric_callable(g_asts, 2), P2.x)
    got = sc.riemann_four_index(curved_metric_spray, P2)
    assert np.abs(got - oracle).max() < 1e-6


def test_four_index_antisymmetry_and_bianchi(fixture_spray):
    R4 = sc.riemann_four_index(fixture_spray, P2)
    assert np.abs(R4 + R4.transpose(0, 1, 3, 2)).max() < 1e-14
    cyc = R4 + R4.transpose(0, 2, 3, 1) + R4.transpose(0, 3, 1, 2)
    assert np.abs(cyc).max() < 1e-13


def test_make_family_registry_and_errors():
    assert set(sc.FAMILIES) == {"flat", "riemannian", "sphere", "example72",
                                "randers", "custom"}
    with pytest.raises(ValueError, match="unknown spray family"):
        make_family("nope")
    # a parameter the family's builder does not take, with the parameters
    # `spraylab list` gives, not the builder's own keywords
    with pytest.raises(ValueError, match=r"family 'flat': .*'kappa'.*"
                                         r"\(parameters: n \(default 2\), box\)$"):
        make_family("flat", kappa=1.0)
    with pytest.raises(ValueError, match=r"'n' \(parameters: file path\)$"):
        make_family("custom", n=2)
    with pytest.raises(ValueError,
                       match=r"'kappa' \(parameters: g entries gIJ, n, box\)$"):
        make_family("riemannian", g={(1, 1): "1", (2, 2): "1"}, n=2, kappa=2.0)
    # metric and 1-form keys outside 1..n are refused, not dropped
    with pytest.raises(ValueError, match="g_30: index outside 1..3"):
        make_family("riemannian", g={(1, 1): "1", (2, 2): "1", (3, 0): "1"}, n=3)
    with pytest.raises(ValueError, match="g_1.52: index outside 1..2"):
        make_family("riemannian", g={(1, 1): "1", (2, 2): "1", (1.5, 2): "5"}, n=2)
    for b in ({3: "0.5*x1"}, {0: "0.5"}, {1.5: "0.1"}):
        with pytest.raises(ValueError,
                           match=r"1-form entry b_[0-9.]+: index outside 1..2"):
            make_family("randers", a={(1, 1): "1", (2, 2): "1"}, b=b, n=2)
    # polynomial family with zero parameters is the flat spray
    sp = make_family("example72")
    assert np.all(sp.coefficients(P2) == 0.0)
    # identity metric gives the flat spray
    sp2 = make_family("riemannian", g={(1, 1): "1", (2, 2): "1"}, n=2)
    assert np.abs(sp2.coefficients(P2)).max() < 1e-15


def test_example72_coefficients_match_definition():
    sp = make_family("example72", A="x1", B="x2^2", C="x1*x2", D="1+x1",
                     f="x1*x2")
    x1, x2 = 0.4, -0.3
    y1, y2 = 0.8, -0.6
    G = sp.coefficients(PointTM((x1, x2), (y1, y2)))
    A, B, C, D = x1, x2 ** 2, x1 * x2, 1 + x1
    f1, f2 = x2, x1
    g1 = B * y1 ** 2 + 2 * C * y1 * y2 + D * y2 ** 2 + (f1 * y1 ** 2 + f2 * y1 * y2) / 3
    g2 = -A * y1 ** 2 - 2 * B * y1 * y2 - C * y2 ** 2 + (f1 * y1 * y2 + f2 * y2 ** 2) / 3
    assert G[0] == pytest.approx(g1, abs=1e-14)
    assert G[1] == pytest.approx(g2, abs=1e-14)


def test_homogeneity_suite_all_zoo_sprays():
    zoo = [make_family("flat", n=2),
           make_family("riemannian", g={(1, 1): "1+x2^2", (2, 2): "1+x1^2",
                                        (1, 2): "x1*x2/2"}, n=2),
           make_family("sphere", n=3, kappa=1.0),
           make_family("sphere", n=4, kappa=2.0),
           make_family("example72", A="x1", B="x2^2", C="x1*x2", D="1+x1",
                       f="x1*x2"),
           make_family("randers", a={(1, 1): "1+x2^2", (2, 2): "1+x1^2"},
                       b={1: "0.2*x2", 2: "-0.1*x1"}, n=2, box=0.8)]
    for sp in zoo:
        worst = sp.check_homogeneity(sample_points(sp, 50, seed=9))
        assert worst <= 1e-9


def test_homogeneity_violation_detected():
    bad = sc.FunctionSpray(2, lambda xs, ys: [ys[0], 0.0], Box.cube(2, 1.0),
                           "bad")
    with pytest.raises(ValueError, match="homogeneity"):
        bad.check_homogeneity(sample_points(bad, 5, seed=1))


def test_point_validation():
    with pytest.raises(ValueError, match=r"\|y\|"):
        PointTM((0.0, 0.0), (0.0, 0.0))


def test_box_validation():
    with pytest.raises(ValueError, match=r"axis x2: bounds \[1.0, -1.0\]"):
        Box((0.0, 1.0), (1.0, -1.0))
    with pytest.raises(ValueError, match="axis x1"):
        Box.cube(2, float("nan"))
    with pytest.raises(ValueError, match="axis x1"):
        Box((0.0,), (float("inf"),))


def test_sampling_protocol_determinism_and_bounds():
    sp = make_family("sphere", n=3, kappa=1.0)
    a = sample_points(sp, 10, seed=42)
    b = sample_points(sp, 10, seed=42)
    assert a == b
    shrunk = sp.domain.shrunk(0.10)
    for p in a:
        assert shrunk.contains(p.x)
        assert np.linalg.norm(p.y) == pytest.approx(1.0, abs=1e-12)


def numpy_sample_points(spray, count, seed):
    """`sample_points` as written on numpy's own generator: the reference."""
    rng = np.random.default_rng(seed)
    box = spray.domain.shrunk(0.10)
    pts = []
    for _ in range(count):
        x = box.sample(rng)
        while True:
            y = rng.standard_normal(spray.n)
            nrm = float(np.linalg.norm(y))
            if nrm > 1e-8:
                break
        pts.append(PointTM(x, tuple(y / nrm)))
    return pts


def test_sample_stream_is_numpys_default_rng_bit_for_bit():
    from spraylab._rng import Generator
    # uniform and standard_normal interleaved as `sample_points` draws them;
    # 10**40 + 7 has five 32-bit words, more entropy than the seeding pool
    for seed in [*range(1000), 2**32 - 1, 2**32, 2**64 + 5,
                 12345678901234567890123, 10**40 + 7]:
        ours, ref = Generator(seed), np.random.default_rng(seed)
        for _ in range(5):
            assert [ours.uniform(-0.7, 1.3) for _ in range(3)] == [
                ref.uniform(-0.7, 1.3) for _ in range(3)], seed
            assert [ours.standard_normal() for _ in range(3)] == \
                ref.standard_normal(3).tolist(), seed
    # a stream long enough to take the ziggurat's tail branch beyond r
    gen = Generator(0)
    ours = [gen.standard_normal() for _ in range(300_000)]
    assert ours == np.random.default_rng(0).standard_normal(300_000).tolist()
    assert max(map(abs, ours)) > 3.6541528853610088
    with pytest.raises(OverflowError, match="range exceeds valid bounds"):
        Generator(0).uniform(-1e308, 1e308)
    with pytest.raises(ValueError, match="non-negative"):
        Generator(-1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sample_points_equal_numpys_draws(n):
    sp = make_family("sphere", n=n, kappa=1.0)
    for seed in (0, 3, 11, 20180704, 12345678901234567890123):
        ours = sample_points(sp, 6, seed)
        ref = numpy_sample_points(sp, 6, seed)
        assert np.array([p.x + p.y for p in ours]).tobytes() == \
            np.array([p.x + p.y for p in ref]).tobytes()


def test_set_up_checks_draw_numpys_x(monkeypatch):
    from spraylab import finsler, projective

    def numpy_draws(box):       # the 20 x of a check, seed 0
        rng = np.random.default_rng(0)
        return [tuple(rng.uniform(l, h) for l, h in zip(box.lo, box.hi))
                for _ in range(20)]

    drawn = []
    sample = Box.sample
    monkeypatch.setattr(Box, "sample",
                        lambda box, rng: drawn.append(sample(box, rng)) or drawn[-1])
    box = Box((-0.3, 0.1), (0.8, 0.9))
    projective.VolumeForm("exp(x1)", 2).check_positive(box)
    finsler.RandersData({(1, 1): "1", (2, 2): "1"}, {1: "0.1"}, 2, box=0.8)
    sc.make_riemannian({(1, 1): "1", (2, 2): "1"}, 2, box=0.5)
    assert drawn == (numpy_draws(box) + numpy_draws(Box.cube(2, 0.8))
                     + numpy_draws(Box.cube(2, 0.5)))


def test_custom_family_from_source(tmp_path):
    path = tmp_path / "spray.txt"
    path.write_text("dim = 2\nG1 = x2*y1^2/2\nG2 = 0\n")
    sp = make_family("custom", file=str(path))
    R = sc.riemann_two_index(sp, P2)
    y1, y2 = P2.y
    assert np.abs(R - np.array([[-y1 * y2, y1 * y1], [0.0, 0.0]])).max() < 1e-13


@pytest.fixture(scope="module")
def value_zoo():
    return [make_family("sphere", n=3, kappa=1.0),
            make_family("example72", **EX72),
            make_family("randers", a=A_CURVED, b={1: "0.2*x2", 2: "-0.1*x1"},
                        n=2, box=0.8)]


@functools.cache
def _jet_N(fr):
    """Nonlinear connection N^i_j = dG^i/dy^j as jets."""
    n = fr.n
    return np.array([[fr.G[i].d(n + j) for j in range(n)] for i in range(n)],
                    dtype=object)


@functools.cache
def _jet_gamma(fr):
    """Berwald connection Gamma^i_jk = dN^i_j/dy^k as jets (one .d per j <= k)."""
    n, N = fr.n, _jet_N(fr)
    out = np.empty((n,) * 3, dtype=object)
    for i, j, k in np.ndindex(out.shape):
        out[i, j, k] = out[i, k, j] if k < j else N[i, j].d(n + k)
    return out


def _jet_hpart(fr, j, k):
    """delta j / delta x^k = dj/dx^k - N^m_k dj/dy^m of a scalar jet."""
    N, out = _jet_N(fr), j.d(k)
    for m in range(fr.n):
        out = out - N[m, k] * j.d(fr.n + m)
    return out


def _jet_cov_h(fr, arr, roles, k):
    """Horizontal covariant derivative of a tensor of jets in direction k:
    `_jet_hpart` plus +T^{..s..} Gamma^i_sk per upper index and
    -T_{..s..} Gamma^s_jk per lower index."""
    arr, Gm = np.asarray(arr, dtype=object), _jet_gamma(fr)
    out = np.empty(arr.shape, dtype=object)
    for idx in np.ndindex(arr.shape):
        t = _jet_hpart(fr, arr[idx], k)
        for axis, role in enumerate(roles):
            for s in range(fr.n):
                jdx = idx[:axis] + (s,) + idx[axis + 1:]
                if role == "up":
                    t = t + Gm[idx[axis], s, k] * arr[jdx]
                else:
                    t = t - Gm[s, idx[axis], k] * arr[jdx]
        out[idx] = t
    return out


def _jet_r2(fr):
    """R^i_k as jets by the standard spray formula:

    R^i_k = 2 dG^i/dx^k - y^j d^2G^i/dx^j dy^k
            + 2 G^j d^2G^i/dy^j dy^k - dG^i/dy^j dG^j/dy^k
    """
    n, G, yj, N = fr.n, fr.G, fr.yj, _jet_N(fr)
    dxG = [[G[i].d(j) for j in range(n)] for i in range(n)]
    out = np.empty((n, n), dtype=object)
    for i, k in itertools.product(range(n), repeat=2):
        t = 2.0 * dxG[i][k]
        for j in range(n):
            t = t - yj[j] * dxG[i][j].d(n + k)
            t = t + 2.0 * (G[j] * N[i, j].d(n + k))
            t = t - N[i, j] * N[j, k]
        out[i, k] = t
    return out


def _jet_ric(R2):
    """Ric = R^m_m as a jet, from the jets of R^i_k."""
    return sc.carrier_sum(R2[m, m] for m in range(R2.shape[0]))


def _jet_r4(fr):
    """R^{ i}_{j kl} as jets: delta Gamma^i_jl / delta x^k - delta Gamma^i_jk /
    delta x^l + Gamma^i_ks Gamma^s_jl - Gamma^s_jk Gamma^i_ls from `_jet_hpart`."""
    n, Gm = fr.n, _jet_gamma(fr)
    hG = np.empty((n,) * 4, dtype=object)   # [i,j,l,k] = delta Gamma^i_jl / delta x^k
    for i, j, l, k in np.ndindex(hG.shape):
        hG[i, j, l, k] = _jet_hpart(fr, Gm[i, j, l], k)
    out = np.empty((n,) * 4, dtype=object)
    for i, j, k, l in np.ndindex(out.shape):
        t = hG[i, j, l, k] - hG[i, j, k, l]
        for s in range(n):
            t = t + Gm[i, k, s] * Gm[s, j, l] - Gm[s, j, k] * Gm[i, l, s]
        out[i, j, k, l] = t
    return out


def _jet_b(fr):
    """B^{ i}_{j kl} = dGamma^i_kl/dy^j as jets, stored [i,j,k,l]."""
    n = fr.n
    out = np.empty((n,) * 4, dtype=object)
    for i, j, k, l in np.ndindex(out.shape):
        out[i, j, k, l] = _jet_gamma(fr)[i, k, l].d(n + j)
    return out


def _jet_chi(fr):
    """chi_k = -(1/6){dRic/dy^k + 2 dR^m_k/dy^m} as jets."""
    n, R2 = fr.n, _jet_r2(fr)
    ric = _jet_ric(R2)
    out = np.empty(n, dtype=object)
    for k in range(n):
        t = ric.d(n + k)
        for m in range(n):
            t = t + 2.0 * R2[m, k].d(n + m)
        out[k] = t / -6.0
    return out


def _jet_t(fr):
    """T^i_k = R^i_k - {R delta^i_k - (1/2) dR/dy^k y^i} as jets."""
    n, R2 = fr.n, _jet_r2(fr)
    R = _jet_ric(R2) / float(n - 1)
    out = np.empty((n, n), dtype=object)
    for i, k in np.ndindex(out.shape):
        t = R2[i, k] + 0.5 * (R.d(n + k) * fr.yj[i])
        out[i, k] = t - R if i == k else t
    return out


def test_float_b_chi_t_match_jet_references(value_zoo):
    for sp in value_zoo:
        for p in sample_points(sp, 2, seed=35):
            for order, depth in ((3, 0), (4, 1)):
                fr = sc.Frame(sp, p, order)
                for got, ref in ((fr.B, _jet_b), (fr.chi, _jet_chi),
                                 (fr.T, _jet_t)):
                    want = fr.table(ref(fr), depth)
                    assert len(got) == len(want) == depth + 1
                    for g, w in zip(got, want):
                        assert sc.rel_residual(g - w, w) <= 1e-13
                        assert not g.flags.writeable      # shared caches
            for name in ("B", "chi", "T"):
                with pytest.raises(ValueError, match="order >= 3"):
                    getattr(sc.Frame(sp, p, 2), name)


def test_float_r2_matches_jet_r2(value_zoo):
    for sp in value_zoo:
        for p in sample_points(sp, 2, seed=36):
            for order in (2, 3, 4):
                fr = sc.Frame(sp, p, order)
                got, want = fr.R2_table, fr.table(_jet_r2(fr), order - 2)
                assert len(got) == len(want) == len(fr.ric) == order - 1
                for g, w in zip(got, want):
                    assert g.shape == w.shape
                    assert sc.rel_residual(g - w, w) <= 1e-13
                # Ric and R are the traces of R^i_k, exactly
                for t, ric, r in zip(got, fr.ric, fr.r_scalar):
                    trace = sc.carrier_sum(t[m, m] for m in range(sp.n))
                    assert np.array_equal(ric, trace)
                    assert np.array_equal(r, trace / float(sp.n - 1))
                    assert not (t.flags.writeable or ric.flags.writeable
                                or r.flags.writeable)     # shared caches
            assert np.abs(sc.Frame(sp, p, 2).R2_table[0]).max() > 0.1
            with pytest.raises(ValueError, match="order >= 2"):
                sc.Frame(sp, p, 1).R2_table


def test_float_r4_matches_jet_r4(value_zoo):
    for sp in value_zoo:
        for p in sample_points(sp, 2, seed=33):
            fr = sp.frame(p, 4)
            R4, dR4 = fr.R4
            ref, dref = fr.table(_jet_r4(fr), 1)
            assert sc.rel_residual(R4 - ref, ref) <= 1e-13
            assert sc.rel_residual(dR4 - dref, dref) <= 1e-13
            # antisymmetric in k, l and a symmetric Ricci tensor, exactly
            assert np.array_equal(R4, -R4.transpose(0, 1, 3, 2))
            assert np.array_equal(dR4, -dR4.transpose(0, 1, 3, 2, 4))
            ric = fr.ric_jl
            assert np.array_equal(ric, ric.T)
            ric_ref = np.einsum("mjml->jl", ref)
            assert sc.rel_residual(ric - 0.5 * (ric_ref + ric_ref.T), ric_ref) <= 1e-13
            assert not (R4.flags.writeable or ric.flags.writeable)   # shared caches
            # an order-3 frame has the values only, an order-2 frame not even those
            (R4_3,) = sc.Frame(sp, p, 3).R4
            assert sc.rel_residual(R4_3 - R4, R4) <= 1e-13
            with pytest.raises(ValueError, match="order >= 3"):
                sc.Frame(sp, p, 2).R4


def test_table_and_cov_h_match_jet_cov_h(value_zoo):
    roles4 = ("up", "down", "down", "down")
    for sp in value_zoo:
        for p in sample_points(sp, 2, seed=31):
            fr = sp.frame(p, 4)
            R4 = _jet_r4(fr)
            R3 = np.empty((sp.n,) * 3, dtype=object)   # y^j R^{ p}_{j kl}
            for q, k, l in np.ndindex(R3.shape):
                R3[q, k, l] = sc.carrier_sum(fr.yj[j] * R4[q, j, k, l]
                                             for j in range(sp.n))
            R2 = _jet_r2(fr)
            for arr, roles in ((R4, roles4), (_jet_b(fr), roles4),
                               (R3, roles4[:3]), (R2, roles4[:2])):
                vals, grads = fr.table(arr, 1)
                assert np.array_equal(vals, sc.tensor_values(arr))
                (got,) = fr.cov_h([vals, grads], roles)
                ref = np.stack([sc.tensor_values(_jet_cov_h(fr, arr, roles, m))
                                for m in range(sp.n)], axis=-1)
                assert got.shape == ref.shape
                assert sc.rel_residual(got - ref, vals, ref) <= 1e-13
            # second partials are the coefficients of the iterated .d
            _, _, hess = fr.table(R2, 2)
            for a in range(2 * sp.n):
                for b in range(2 * sp.n):
                    d2 = [j.d(a).d(b) for j in R2.flat]
                    assert np.array_equal(hess[..., a, b].ravel(),
                                          sc.tensor_values(d2))
            with pytest.raises(ValueError, match="order-2"):
                fr.table(R4, 2)             # R4 is an order-1 jet here


def _jet_rapcsak(fr, L, a):
    """a L_{.k|m} y^m - L_{|k} composed from `_jet_cov_h` and `_jet_hpart`."""
    n = fr.n
    Lv = [L.d(n + k) for k in range(n)]
    dLv = [_jet_cov_h(fr, Lv, ("down",), m) for m in range(n)]
    return np.array([sc.carrier_value(
        a * sc.carrier_sum(dLv[m][k] * fr.yj[m] for m in range(n))
        - _jet_hpart(fr, L, k)) for k in range(n)])


def test_float_rapcsak_matches_jet_composition(value_zoo):
    from spraylab import projective as pj
    for sp in value_zoo:
        dV = pj.VolumeForm("exp(x1)", sp.n)
        for p in sample_points(sp, 2, seed=32):
            fr = sp.frame(p, 4)
            R = _jet_ric(_jet_r2(fr)) / float(sp.n - 1)
            for L, a in ((R, 0.5), (pj.s_jet(fr, dV), 1.0)):
                got = fr.rapcsak(fr.table(L, 2), a)
                ref = _jet_rapcsak(fr, L, a)
                assert got.shape == (sp.n,)
                assert sc.rel_residual(got - ref, ref,
                                       fr.table(L, 1)[1]) <= 1e-13
            # eta reads R's float table
            got, ref = fr.rapcsak(fr.r_scalar, 0.5), _jet_rapcsak(fr, R, 0.5)
            assert sc.rel_residual(got - ref, ref, fr.r_scalar[1]) <= 1e-13


def test_table_operators_partials_match_jet_references(value_zoo):
    # the partial entries of the table operators against jet compositions:
    # R^i_{k|m} of the depth-2 R^i_k table, tau of the deformed spray, the
    # horizontal-first chi route and the mean-Cartan chi route
    from spraylab import finsler as fl
    from spraylab import projective as pj
    roles = ("up", "down")
    for sp in value_zoo:
        n, dV = sp.n, pj.VolumeForm("exp(x1)", sp.n)
        hat = pj.deform(sp, dV)
        for p in sample_points(sp, 2, seed=37):
            fr, y = sp.frame(p, 4), np.array(p.y)
            ref = np.stack([_jet_cov_h(fr, _jet_r2(fr), roles, m)
                            for m in range(n)], axis=-1)
            S = hat.S(p, 4)
            tau = (S / (n + 1.0)) * (S / (n + 1.0))
            for m in range(n):
                tau = tau + (_jet_hpart(fr, S, m) * fr.yj[m]) / (n + 1.0)
            for got, want in ((fr.cov_h(fr.R2_table, roles), fr.table(ref, 1)),
                              (hat.tau(p), fr.table(tau, 2))):
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g.shape == w.shape
                    assert sc.rel_residual(g - w, w) <= 1e-13
            fr3, S3 = sp.frame(p, 3), hat.S(p, 3)
            Sh = [_jet_hpart(fr3, S3, m) for m in range(n)]
            want = np.array([0.5 * sc.carrier_value(sc.carrier_sum(
                Sh[m].d(n + k) * fr3.yj[m] for m in range(n)) - Sh[k])
                for k in range(n)])
            got = pj.chi_via_s(sp, dV, p, "horizontal-first")
            assert sc.rel_residual(got - want, want) <= 1e-13
            if sp.metric is None:
                continue
            I = _jet_mean_cartan(sp.metric.l_jets(p, 5), n)
            Ip = np.stack([_jet_cov_h(fr3, I, ("down",), q) for q in range(n)], -1)
            Ipq = np.stack([_jet_cov_h(fr3, Ip, ("down", "down"), q)
                            for q in range(n)], -1)
            want = 0.5 * (np.einsum("kpq,p,q->k", sc.tensor_values(Ipq), y, y)
                          + sc.tensor_values(I) @ fr3.R2_table[0])
            got = fl.chi_cartan(sp.metric, p)
            assert sc.rel_residual(got - want, want) <= 1e-13


# the float quantities of a frame, with the lowest order that defines each
FRAME_TABLES = (("N_values", 1), ("Gamma_values", 2), ("R2_table", 2),
                ("ric", 2), ("r_scalar", 2), ("B", 3), ("R4", 3), ("chi", 3),
                ("T", 3))


def test_lower_orders_read_the_leading_tables_of_the_one_frame(value_zoo):
    # a spray keeps one frame per point; a reader that needs order k < 4
    # takes the leading tables of the order-4 frame, which must hold the
    # bits of a frame built at order k
    from spraylab import projective as pj
    for sp in value_zoo:
        (p,) = sample_points(sp, 1, seed=44)
        for spray in (sp, pj.deform(sp, pj.VolumeForm("exp(x1)", sp.n))):
            top = spray.frame(p, 4)
            for order in range(1, top.order):
                assert spray.frame(p, order) is top
                built = sc.Frame(spray, p, order)
                for g, h in zip(top.G, built.G, strict=True):
                    assert g.truncated(order).coeffs.tobytes() == h.coeffs.tobytes()
                for name, low in FRAME_TABLES:
                    if order < low:
                        continue
                    got, want = getattr(top, name), getattr(built, name)
                    if isinstance(got, np.ndarray):
                        got, want = [got], [want]
                    assert len(got) >= len(want), name
                    for a, b in zip(got, want):
                        assert a.tobytes() == b.tobytes(), (spray.label, order, name)
                        assert not a.flags.writeable, name    # shared caches
            assert spray._frames[p.x, p.y] is top


def test_r4_and_t_build_their_partials_on_the_first_read_past_the_values(
        monkeypatch):
    # R4 and T of an order-4 frame are built as values alone; indexing past
    # [0] builds the whole table, whose values hold the same bits
    depths = []
    init = sc._Table.__init__
    monkeypatch.setattr(sc._Table, "__init__", lambda t, build, depth: init(
        t, lambda d: depths.append(d) or build(d), depth))
    sp = make_family("sphere", n=3, kappa=1.0)
    (p,) = sample_points(sp, 1, seed=3)
    for name in ("R4", "T"):
        lazy, whole = sc.Frame(sp, p, 4), sc.Frame(sp, p, 4)
        depths.clear()
        values = getattr(lazy, name)[0]
        assert depths == [0] and len(getattr(lazy, name)) == 2, name
        table = getattr(whole, name)[:]
        assert depths == [0, 0, 1] and len(table) == 2, name
        assert values.tobytes() == table[0].tobytes(), name
        assert getattr(lazy, name)[1].tobytes() == table[1].tobytes(), name
        assert getattr(lazy, name)[0].tobytes() == values.tobytes(), name
        assert depths == [0, 0, 1, 1], name


def _leaves(v):
    if isinstance(v, (list, tuple)):
        for u in v:
            yield from _leaves(u)
    else:
        yield v


def test_x_only_jets_equal_the_full_lift_bit_for_bit(value_zoo, monkeypatch):
    # dlog in S and the Randers s-tensors run on n-variable jets and are
    # embedded into the 2n-variable space; each jet handed out must be the one
    # the 2n lift gives, signed zeros included.  (The metric sprays factor g
    # on the n-variable lift themselves and place the right-hand side; their
    # factors are checked in the test below, their G there and in
    # `test_placed_rhs_matches_the_2n_product_loop_bit_for_bit`.)
    from collections import Counter
    from spraylab import finsler as fl
    from spraylab import jets
    from spraylab import projective as pj
    x_only, seen = jets.x_only, Counter()

    def compare(out, ref, name, n):
        for a, b in zip(_leaves(out), _leaves(ref), strict=True):
            assert type(a) is type(b)
            if not isinstance(a, jets.Jet):
                assert repr(a) == repr(b)
                continue
            assert a.space is b.space and a.dim == 2 * n
            assert a.coeffs.tobytes() == b.coeffs.tobytes(), name
            seen[name] += 1

    def checked(f, xs):
        out, ref = x_only(f, xs), f(list(xs))
        compare(out, ref, f.__qualname__.rsplit(".", 1)[-1], len(xs))
        return out

    monkeypatch.setattr(jets, "x_only", checked)
    rd = fl.RandersData(A_CURVED, {1: "0.2*x2", 2: "-0.1*x1"}, 2, box=0.8)
    for sp in value_zoo + [rd.deformed_spray()]:
        hat = pj.deform(sp, pj.VolumeForm("exp(x1)", sp.n))
        for spray, seed in ((sp, 61), (hat, 62)):
            # a fresh point per order, so every order evaluates
            for order, p in enumerate(sample_points(sp, 4, seed=seed), start=1):
                spray.frame(p, order)
    assert set(seen) == {"dlog", "_carrier_tensors"}, seen


SPHERE3_G = {(i, i): "4 / (1 + 1.0*(x1^2 + x2^2 + x3^2))^2" for i in (1, 2, 3)}
SPHERE4_G = {(i, i): "4 / (1 + 1.0*(x1^2 + x2^2 + x3^2 + x4^2))^2"
             for i in (1, 2, 3, 4)}
# metrics of the sprays whose right-hand side is placed: the sphere (n = 3, 4;
# diagonal), Randers' alpha of the value zoo, a g with constant dg (every c_lkm
# a float), a constant g (every c_lkm the float 0.0), and two on which every
# c_1km is negative: as floats (q_1 holds -0.0 off the y-only positions) and
# as jets (a product's zero coefficients are c[alpha] * 0.0 = -0.0 before
# its bincount adds +0.0)
PLACED_METRICS = [("sphere(n=3,kappa=1)", SPHERE3_G, 3), ("sphere(n=4,kappa=1)", SPHERE4_G, 4),
                  ("alpha", A_CURVED, 2),
                  ("linear", {(1, 1): "2+x1", (2, 2): "2-x2", (1, 2): "0.3*x1"}, 2),
                  ("constant", {(1, 1): "2", (2, 2): "3", (1, 2): "1"}, 2),
                  ("negative floats", {(1, 1): "2-x1-x2", (1, 2): "-0.5*x1-0.5*x2",
                                       (2, 2): "2"}, 2),
                  ("negative jets", {(1, 1): "2-x1-x2+x1*x2",
                                     (1, 2): "-0.3*x1-0.3*x2+0.1*x1*x2",
                                     (2, 2): "2+0.5*x1+0.1*x1*x2"}, 2)]


def _metric_jets(g, n, env):
    """g_ij and dg_ij/dx^k evaluated on the carriers `env`."""
    g_asts, memo = sc._normalize_metric(g, n), {}
    gv = [[exprdsl.evaluate(g_asts[i][j], env, memo) for j in range(n)]
          for i in range(n)]
    dgv = [[[exprdsl.evaluate(exprdsl.differentiate(g_asts[i][j], k), env, memo)
             for k in range(n)] for j in range(n)] for i in range(n)]
    return gv, dgv


def _loop_rhs(dgv, ys, n):
    """The right-hand side of `metric_spray_fn` as products of carriers: all
    n^2 products y^k y^m, then every c_lkm * (y^k y^m), summed in (k, m)
    order.  On a 2n lift this is the reference for `_placed_rhs`."""
    yy = [[ys[k] * ys[m] for m in range(n)] for k in range(n)]
    return [sc.carrier_sum((2.0 * dgv[l][k][m] - dgv[m][k][l]) * yy[k][m]
                           for k in range(n) for m in range(n))
            for l in range(n)]


def _placed_spray(label, g, n):
    if label.startswith("sphere"):
        return make_family("sphere", n=n, kappa=1.0)
    return sc.make_riemannian(g, n, box=0.8)


def test_x_only_factorization_solves_like_the_2n_lift_bit_for_bit():
    # G of a metric spray (the sphere of the value zoo, Randers' alpha)
    # applies factors of g built on x-only jets to the right-hand side; it
    # must be what `solve_carrier` gives on g lifted in all 2n variables, on
    # jets of every order and on floats.  Back-substitution pins each
    # quotient's value, so the jets' values are the float G bit for bit.
    # The factors match the 2n elimination on the x-only positions and hold
    # exact zeros elsewhere: the 2n elimination leaves -0.0 there (a float 0
    # minus a jet), which only products read.
    from spraylab import finsler as fl
    from spraylab import jets
    rd = fl.RandersData(A_CURVED, {1: "0.2*x2", 2: "-0.1*x1"}, 2, box=0.8)
    cases = [(make_family("sphere", n=3, kappa=1.0), SPHERE3_G, 3),
             (rd.alpha_spray(), A_CURVED, 2)]
    for sp, g, n in cases:
        for p in sample_points(sp, 4, seed=65):
            floats = np.array(sp.eval_coefficients(list(p.x), list(p.y)))
            for order in (None, 1, 2, 3, 4):
                env = (list(p.x + p.y) if order is None
                       else jets.lift_point(p.x + p.y, order))
                xs, ys = env[:n], env[n:]
                gv, dgv = _metric_jets(g, n, env)
                if order is not None:
                    small = _metric_jets(g, n, jets.lift_point(p.x, order))[0]
                    factors = jets.embed(sc.factor_carrier(small), 2 * n)
                    on = jets._embed_map(n, 2 * n, order)
                    off = np.ones(jets.jet_space(2 * n, order).size, dtype=bool)
                    off[on] = False
                    for a, b in zip(_leaves(factors), _leaves(sc.factor_carrier(gv)),
                                    strict=True):
                        assert type(a) is type(b)
                        if not isinstance(a, jets.Jet):
                            assert repr(a) == repr(b)
                            continue
                        assert a.coeffs[on].tobytes() == b.coeffs[on].tobytes()
                        assert not (a.coeffs[off].any() or b.coeffs[off].any())
                (sol,) = sc.solve_carrier(gv, [_loop_rhs(dgv, ys, n)])
                got = sp.eval_coefficients(xs, ys)
                for a, b in zip(got, (0.25 * v for v in sol), strict=True):
                    assert type(a) is type(b), (sp.label, order)
                    if order is not None:
                        a, b = a.coeffs, b.coeffs
                    assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (
                        sp.label, order)
                values = np.array([sc.carrier_value(v) for v in got])
                assert values.tobytes() == floats.tobytes(), (sp.label, order)


def test_metric_spray_differentiates_equal_entries_once_per_slot(monkeypatch):
    # one differentiation memo per slot: the sphere's n equal diagonal
    # entries share their derivatives (336 calls, recursion included, with a
    # fresh memo per entry), and dg holds the interned nodes fresh memos give
    diff, calls, top, depth = exprdsl.differentiate, [], [], [0]

    def counted(ast, slot, memo=None):
        calls.append(slot)
        depth[0] += 1
        out = diff(ast, slot, memo)
        depth[0] -= 1
        if not depth[0]:        # called by the spray, not by the recursion
            top.append((ast, slot, out, memo))
        return out

    monkeypatch.setattr(exprdsl, "differentiate", counted)
    make_family("sphere", n=4, kappa=1.0)
    monkeypatch.undo()
    assert len(calls) == 132
    assert len(top) == 4 * 4 * 4 and len({id(t[3]) for t in top}) == 4
    for ast, slot, out, _memo in top:
        assert out is exprdsl.differentiate(ast, slot)


def test_metric_sliced_from_a_deeper_order_equals_a_fresh_one_bit_for_bit():
    # a metric spray factors g and takes dg once per x, at the highest order
    # asked there; a lower order reads prefix slices of those jets.  Sliced
    # from order 5 they must be the factors and dg evaluated fresh at each
    # order 1-5, and G of a spray asked for order 5 first the G of a spray
    # that never was: on the sphere, RIEMANNIAN2's g and the RANDERS2 alpha
    from spraylab import finsler as fl
    from spraylab import jets
    rd = fl.RandersData(A_CURVED, {1: "0.2*x2", 2: "-0.1*x1"}, 2, box=0.8)
    cases = [(make_family("sphere", n=3, kappa=1.0), SPHERE3_G, 3),
             (make_family("riemannian", g=A_CURVED, n=2), A_CURVED, 2),
             (rd.alpha_spray(), A_CURVED, 2)]
    for sp, g, n in cases:
        def fresh():
            return sc.metric_spray_fn(sc._normalize_metric(g, n), n)
        served = fresh()
        for p in sample_points(sp, 3, seed=67):
            gv, dgv = _metric_jets(g, n, jets.lift_point(p.x, 5))
            top = (sc.factor_carrier(gv), dgv)
            lift = jets.lift_point(p.x + p.y, 5)
            served(lift[:n], lift[n:])
            for order in range(1, 6):
                gk, dgk = _metric_jets(g, n, jets.lift_point(p.x, order))
                for a, b in zip(_leaves(sc._truncated(top, order)),
                                _leaves((sc.factor_carrier(gk), dgk)), strict=True):
                    assert type(a) is type(b)
                    if isinstance(a, jets.Jet):
                        assert a.space is b.space, (sp.label, order)
                        assert a.coeffs.tobytes() == b.coeffs.tobytes(), sp.label
                    else:
                        assert repr(a) == repr(b)
                lift = jets.lift_point(p.x + p.y, order)
                for a, b in zip(served(lift[:n], lift[n:]),
                                fresh()(lift[:n], lift[n:]), strict=True):
                    assert a.coeffs.tobytes() == b.coeffs.tobytes(), (sp.label, order)


def test_float_coefficients_are_evaluated_once_and_read_only(value_zoo):
    # `coefficients` keeps one read-only array per (x, y), which homogeneity,
    # the deformed spray and G + P y (its float path reads G's) all share;
    # it must hold the bits of a fresh evaluation, on a spray never asked
    from spraylab import projective as pj

    def family(sp):
        return [sp, pj.deform(sp, pj.VolumeForm("exp(x1)", sp.n)),
                pj.with_projective_factor(sp, "0.3*y1 + 0.1*y2")]

    fresh_zoo = [make_family("sphere", n=3, kappa=1.0),
                 make_family("example72", **EX72),
                 make_family("randers", a=A_CURVED, b={1: "0.2*x2", 2: "-0.1*x1"},
                             n=2, box=0.8)]
    for sp, fresh_sp in zip(value_zoo, fresh_zoo, strict=True):
        for p in sample_points(sp, 3, seed=68):
            for spray, fresh in zip(family(sp), family(fresh_sp), strict=True):
                want = np.array([sc.carrier_value(v) for v in
                                 fresh.eval_coefficients(list(p.x), list(p.y))])
                got = spray.coefficients(p)
                assert spray.coefficients(p) is got
                assert got.tobytes() == want.tobytes(), spray.label
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got[0] = 0.0


def test_placed_rhs_matches_the_2n_product_loop_bit_for_bit():
    # the right-hand side of a metric spray is written into place from c on
    # x-only jets (floats where dg is constant) and y^k y^m on n-variable
    # jets; it must have the bits of the product loop in the 2n space, at
    # orders 1-5 and at scaled points, negative scales included
    from spraylab import jets
    floats = set()
    for label, g, n in PLACED_METRICS:
        sp = _placed_spray(label, g, n)
        for p0 in sample_points(sp, 2, seed=66):
            for s in (1.0, 0.5, -3.0):
                p = p0.scaled(s)
                for order in range(1, 6):
                    lift = jets.lift_point(p.x + p.y, order)
                    small = _metric_jets(g, n, jets.lift_point(p.x, order))[1]
                    got = sc._placed_rhs(small, jets.lift_point(p.y, order))
                    ref = _loop_rhs(_metric_jets(g, n, lift)[1], lift[n:], n)
                    for a, b in zip(got, ref, strict=True):
                        assert a.space is b.space, (label, order)
                        assert a.coeffs.tobytes() == b.coeffs.tobytes(), (label, order, s)
                    floats |= {label for v in _leaves(small)
                               if not isinstance(v, jets.Jet)}
    assert floats >= {"linear", "constant", "alpha"}, floats


def test_zero_jet_skips_leave_the_solve_bit_for_bit(monkeypatch):
    # factor_carrier and solve_factored skip an update f * v when f is a jet
    # with no nonzero coefficient (a diagonal g leaves every multiplier and
    # off-diagonal U entry so); the solution must be that of the solve with
    # every product taken, on the 2n lift, with the spray's right-hand side
    from spraylab import jets
    minus, skipped = sc._minus_product, []

    def counted(acc, f, v):
        out = minus(acc, f, v)
        skipped.append(out is acc)
        return out

    monkeypatch.setattr(sc, "_minus_product", counted)
    for label, g, n in PLACED_METRICS[:3]:
        sp = _placed_spray(label, g, n)
        for p in sample_points(sp, 2, seed=68):
            for order in (1, 2, 3, 4):
                lift = jets.lift_point(p.x + p.y, order)
                gv, dgv = _metric_jets(g, n, lift)
                q = _loop_rhs(dgv, lift[n:], n)
                skipped.clear()
                (got,) = sc.solve_carrier(gv, [q])
                assert any(skipped) == label.startswith("sphere"), (label, skipped)
                with monkeypatch.context() as m:
                    m.setattr(sc, "_minus_product", lambda acc, f, v: acc - f * v)
                    (ref,) = sc.solve_carrier(gv, [q])
                for a, b in zip(got, ref, strict=True):
                    assert a.space is b.space
                    assert a.coeffs.tobytes() == b.coeffs.tobytes(), (label, order)


def test_jet_products_of_one_order_4_sphere_frame(monkeypatch):
    # only the solve's back-substitution is a 2n-variable product: g's
    # elimination runs on x-only jets, the right-hand side is placed and
    # updates by zero jets are skipped.  Jet-by-jet products of one order-4
    # sphere(n=3) frame build, by (dim, order) of the result: 57 in the 2n
    # space when the whole solve ran there, 31 (and 46 x-only) when all n^2
    # products y^k y^m were formed, 28 when y^m y^k reused y^k y^m, now 3
    # (45 x-only and 6 y^k y^m on order-2 n-variable jets)
    from collections import Counter
    from spraylab import jets
    counts, mul = Counter(), jets.Jet.__mul__

    def counted(a, b):
        out = mul(a, b)
        if isinstance(b, jets.Jet):
            counts[out.dim, out.order] += 1
        return out

    sp = make_family("sphere", n=3, kappa=1.0)
    (p,) = sample_points(sp, 1, seed=3)
    monkeypatch.setattr(jets.Jet, "__mul__", counted)
    sp.frame(p, 4)
    assert counts[6, 4] <= 3, counts


def test_s_of_lower_order_is_a_slice_of_the_top_s(value_zoo):
    # the deformed spray builds S once per point, at the highest order asked
    # for first; lower orders must read the bits `s_jet` builds at that order
    from spraylab import projective as pj
    for sp in value_zoo:
        dV = pj.VolumeForm("exp(x1)", sp.n)
        hat = pj.DeformedSpray(sp, dV)
        (p,) = sample_points(sp, 1, seed=63)
        top = hat.S(p, 4)
        for order in (1, 2, 3):
            served, built = hat.S(p, order), pj.s_jet(sc.Frame(sp, p, order), dV)
            assert np.shares_memory(served.coeffs, top.coeffs)
            assert served.space is built.space
            assert served.coeffs.tobytes() == built.coeffs.tobytes()


def test_float_s_matches_the_s_jet_value_bit_for_bit(value_zoo):
    # `s_value` reads S off N_values and dlog on floats; its bits must be
    # those of `s_jet`'s value, signed zeros included.  On the spray below
    # Pi = -0.0 where y1, y2 < 0, and "1+0*x1" reads x with dlog = 0, so
    # there S is -0.0 only if the products y^m dlog_m are +0.0 as in `s_jet`
    from spraylab import projective as pj
    zeros = ExpressionSpray(2, [exprdsl.parse("0*y1^2", 2), exprdsl.parse("0*y2^2", 2)],
                            Box.cube(2, 1.0), "signed-zero")
    negative = 0
    for sp in value_zoo + [zeros]:
        for sigma in ("1", "exp(x1)", "1+0*x1"):
            dV = pj.VolumeForm(sigma, sp.n)
            for p0 in sample_points(sp, 8, seed=67):
                for p in (p0, p0.scaled(-2.0)):
                    fr = sp.frame(p, 1)
                    got = np.float64(pj.s_value(fr, dV)).tobytes()
                    assert got == np.float64(pj.s_jet(fr, dV).value).tobytes()
                    negative += got == np.float64(-0.0).tobytes()
                    assert pj.s_curvature(sp, dV, p) == pj.s_value(fr, dV)
    assert negative > 0


def test_a_nan_coefficient_is_kept_by_the_homogeneity_residual():
    # inf - inf: G = [nan, 0] everywhere, which a max() of residuals dropped
    doc = exprdsl.parse_spray_source(
        "dim = 2\nG1 = 1e308*10*y1^2 - 1e308*10*y1^2\nG2 = 0\n")
    sp = sc.make_custom(doc=doc)
    assert np.isnan(sp.coefficients(P2)[0])
    assert math.isnan(sp.homogeneity_residual(P2))
    with pytest.raises(ValueError, match=r"^custom: spray coefficients G\(x, s y\) "
                       r"are not finite at x = \(0\.1, -0\.2\), y = \(0\.7, 0\.4\)"):
        sp.check_homogeneity([P2])
