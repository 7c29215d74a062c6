"""chi routes, T, Weyl, eta, and the classification flags."""

import numpy as np
import pytest

from spraylab import curvature as cv
from spraylab import exprdsl
from spraylab import spray_core as sc
from spraylab.spray_core import (Box, ExpressionSpray, PointTM, make_family,
                                 sample_points)

P2 = PointTM((0.1, -0.2), (0.7, 0.4))
P3 = PointTM((0.1, -0.2, 0.3), (0.5, -0.6, 0.4))


@pytest.fixture(scope="module")
def hand_fixture():
    return ExpressionSpray(2, [exprdsl.parse("x2*y1^2/2", 2),
                               exprdsl.parse("0", 2)], Box.cube(2, 1.0),
                           "hand-fixture")


@pytest.fixture(scope="module")
def custom3():
    # a 3D spray that is neither of scalar curvature nor chi-closed
    return ExpressionSpray(3, [exprdsl.parse("x2*y1^2/2", 3),
                               exprdsl.parse("x3*y2^2/3", 3),
                               exprdsl.parse("0", 3)], Box.cube(3, 1.0),
                           "custom3")


@pytest.fixture(scope="module")
def ex72():
    return make_family("example72", A="x1", B="x2^2", C="x1*x2", D="1+x1",
                       f="x1*x2")


ALL_ROUTES = (cv.chi_definition, cv.chi_trace, cv.chi_local, cv.chi_from_t)


def test_chi_fixture_exact_values(hand_fixture):
    # hand computation: chi = (y2/2, -y1/2) for G^1 = x2 y1^2/2, G^2 = 0
    y1, y2 = P2.y
    expect = np.array([y2 / 2.0, -y1 / 2.0])
    for route in ALL_ROUTES:
        got = route(hand_fixture, P2)
        assert np.abs(got - expect).max() < 1e-13, route.__name__


def test_chi_zero_flat_and_riemannian():
    flat = make_family("flat", n=2)
    sph = make_family("sphere", n=3, kappa=1.0)
    for route in ALL_ROUTES:
        assert np.abs(route(flat, P2)).max() == 0.0
        assert np.abs(route(sph, P3)).max() < 1e-13


def test_chi_zero_polynomial_family(ex72):
    # the divergence of this family is an exact differential, so chi = 0
    for p in sample_points(ex72, 20, seed=72):
        for route in ALL_ROUTES:
            assert np.abs(route(ex72, p)).max() < 1e-9


def test_chi_route_agreement_on_custom_spray(custom3):
    for p in sample_points(custom3, 20, seed=13):
        base = cv.chi_definition(custom3, p)
        scale = custom3.frame(p, 3).R2_table[0]
        for route in ALL_ROUTES[1:]:
            got = route(custom3, p)
            assert sc.rel_residual(got - base, base, scale) < 1e-8


def test_chi_is_degree_one_homogeneous(custom3):
    # vertical derivative of a 2-homogeneous tensor: chi(x, s y) = s chi(x, y)
    base = cv.chi_definition(custom3, P3)
    for s in (0.5, 2.0):
        scl = cv.chi_definition(custom3,
                                PointTM(P3.x, tuple(s * v for v in P3.y)))
        assert np.abs(scl - s * base).max() < 1e-12 * (1 + np.abs(base).max())


def test_t_curvature_flat_sphere_and_trace(custom3):
    flat = make_family("flat", n=2)
    assert np.all(cv.t_curvature(flat, P2) == 0.0)
    sph = make_family("sphere", n=3, kappa=1.0)
    for p in sample_points(sph, 10, seed=3):
        T = cv.t_curvature(sph, p)
        assert sc.rel_residual(T, sph.frame(p, 3).R2_table[0]) < 1e-8
    T3 = cv.t_curvature(custom3, P3)
    assert abs(np.trace(T3)) < 1e-9 * (1 + np.abs(T3).max())
    assert np.abs(T3).max() > 1e-3  # genuinely non-isotropic


def test_chi_from_t_route(custom3):
    # chi_k = -(1/3) dT^m_k/dy^m
    got = cv.chi_from_t(custom3, P3)
    base = cv.chi_definition(custom3, P3)
    assert np.abs(got - base).max() < 1e-12


def test_weyl_routes_and_trace(custom3, ex72):
    for sp, p in ((custom3, P3), (ex72, P2)):
        w1 = cv.weyl(sp, p, "direct")
        w2 = cv.weyl(sp, p, "via_chi")
        assert sc.rel_residual(w1 - w2, w1, w2) < 1e-10
    with pytest.raises(ValueError, match="route"):
        cv.weyl(custom3, P3, "bogus")


def test_weyl_zero_cases(ex72):
    flat = make_family("flat", n=2)
    assert np.all(cv.weyl(flat, P2) == 0.0)
    sph = make_family("sphere", n=3, kappa=1.0)
    for p in sample_points(sph, 10, seed=8):
        W = cv.weyl(sph, p)
        assert sc.rel_residual(W, sph.frame(p, 3).R2_table[0]) < 1e-8
    # the polynomial family is of isotropic (hence scalar) curvature
    for p in sample_points(ex72, 10, seed=9):
        W = cv.weyl(ex72, p)
        assert sc.rel_residual(W, ex72.frame(p, 3).R2_table[0]) < 1e-8


def test_ricci_symmetry_and_contraction(custom3):
    ric = cv.ricci_tensor(custom3, P3)
    assert np.array_equal(ric, ric.T)
    y = np.array(P3.y)
    assert float(y @ ric @ y) == pytest.approx(cv.ricci_scalar(custom3, P3),
                                               rel=1e-12, abs=1e-12)


def test_eta_flat_sphere_and_nonzero_fixture(custom3):
    flat = make_family("flat", n=2)
    assert np.all(cv.eta(flat, P2) == 0.0)
    sph = make_family("sphere", n=3, kappa=1.0)
    for p in sample_points(sph, 10, seed=14):
        e = cv.eta(sph, p)
        assert sc.rel_residual(e, sph.frame(p, 3).R2_table[0]) < 1e-7
    # frozen regression fixture for a non-isotropic spray
    e3 = cv.eta(custom3, P3)
    assert np.abs(e3 - np.array([0.003, 0.0105, 0.012])).max() < 1e-12


def test_classify_flags(custom3, ex72):
    flat = make_family("flat", n=2)
    cl = cv.classify(flat, sample_points(flat, 10, seed=1))
    assert cl.isotropic and cl.scalar_curvature and cl.chi_zero
    cl72 = cv.classify(ex72, sample_points(ex72, 20, seed=2))
    assert cl72.isotropic and cl72.scalar_curvature and cl72.chi_zero
    cl3 = cv.classify(custom3, sample_points(custom3, 20, seed=3))
    assert not cl3.isotropic and not cl3.scalar_curvature and not cl3.chi_zero
    with pytest.raises(ValueError, match="non-empty"):
        cv.classify(flat, [])


def test_scalar_plus_chi_implies_isotropic():
    # consistency: whenever the Weyl and chi flags are both set, the
    # isotropy flag must be set as well
    zoo = [make_family("flat", n=2),
           make_family("sphere", n=3, kappa=1.0),
           make_family("example72", A="x1", B="x2^2", C="x1*x2", D="1+x1",
                       f="x1*x2"),
           make_family("randers", a={(1, 1): "1+x2^2", (2, 2): "1+x1^2"},
                       b={1: "0.2*x2", 2: "-0.1*x1"}, n=2, box=0.8)]
    for sp in zoo:
        cl = cv.classify(sp, sample_points(sp, 15, seed=51))
        if cl.scalar_curvature and cl.chi_zero:
            assert cl.isotropic, sp.label
