"""Derivative engine: lifts, partials, arithmetic laws, finite-difference checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spraylab import exprdsl, jets
from spraylab.jets import Jet, JetDomainError, lift_point, lift_variable

import exprgen
import oracles


def test_lift_variable_structure():
    j = lift_variable(0, 3.0, dim=4, order=2)
    assert j.value == 3.0
    assert j.partial((1, 0, 0, 0)) == 1.0
    assert j.partial((0, 1, 0, 0)) == 0.0
    assert j.partial((2, 0, 0, 0)) == 0.0

    j2 = lift_variable(3, 0.0, dim=4, order=1)
    assert j2.value == 0.0
    assert j2.partial((0, 0, 0, 1)) == 1.0


def test_lift_variable_out_of_range():
    with pytest.raises(ValueError):
        lift_variable(4, 1.0, dim=4, order=2)


def test_product_of_lifted_coordinates():
    x1 = lift_variable(0, 2.0, dim=4, order=2)
    y1 = lift_variable(2, 5.0, dim=4, order=2)
    p = x1 * y1
    assert p.partial((1, 0, 1, 0)) == 1.0
    assert p.value == 10.0


def test_partial_of_square():
    x = lift_variable(0, 3.0, dim=1, order=3)
    assert (x * x).partial((2,)) == pytest.approx(2.0, abs=1e-14)


def test_partial_of_constant():
    c = Jet.constant(7.5, dim=2, order=3)
    assert c.partial((1, 0)) == 0.0
    assert c.partial((1, 2)) == 0.0


def test_partial_sqrt_against_fd():
    # d/dy1 of sqrt(y1^2 + y2^2) at (3, 4) is 0.6; plain central differences
    # with step 1e-5 pin the oracle value
    a, b = lift_point((3.0, 4.0), order=2)
    j = (a * a + b * b).sqrt()
    h = 1e-5
    fd = (math.hypot(3 + h, 4) - math.hypot(3 - h, 4)) / (2 * h)
    assert abs(j.partial((1, 0)) - fd) < 1e-9
    assert j.partial((1, 0)) == pytest.approx(0.6, abs=1e-12)


def test_partial_order_overflow():
    x = lift_variable(0, 1.0, dim=2, order=2)
    with pytest.raises(ValueError):
        x.partial((3, 0))


def test_eval_derivatives_zero_map():
    tables = jets.eval_derivatives(lambda args: [0.0, 0.0], (0.3, -0.2, 0.7, 0.1),
                                   order=3)
    assert len(tables) == 2
    assert all(v == 0.0 for t in tables for v in t.values())


def test_eval_derivatives_trace_of_polynomial_family():
    # the divergence dG^m/dy^m of the 2D polynomial family with f = x1*x2
    # is x2*y1 + x1*y2
    src = ["x2*y1^2/3 + x1*y1*y2/3", "x2*y1*y2/3 + x1*y2^2/3"]
    asts = [exprdsl.parse(s, 2) for s in src]

    def trace(args):
        xs, ys = args[:2], args[2:]
        g = [exprdsl.evaluate(a, list(xs) + list(ys)) for a in asts]
        return g[0].d(2) + g[1].d(3)

    (table,) = jets.eval_derivatives(trace, (0.4, -0.7, 0.2, 0.9), order=2)
    x1, x2, y1, y2 = 0.4, -0.7, 0.2, 0.9
    assert table[(0, 0, 0, 0)] == pytest.approx(x2 * y1 + x1 * y2, abs=1e-13)
    assert table[(1, 0, 0, 0)] == pytest.approx(y2, abs=1e-13)
    assert table[(0, 1, 0, 0)] == pytest.approx(y1, abs=1e-13)
    assert table[(0, 0, 1, 0)] == pytest.approx(x2, abs=1e-13)
    assert table[(0, 0, 0, 1)] == pytest.approx(x1, abs=1e-13)


def test_eval_derivatives_mixed_partial():
    (table,) = jets.eval_derivatives(lambda a: a[0].exp() * a[1], (0.0, 2.0),
                                     order=2)
    fd = oracles.fd_second(lambda z: math.exp(z[0]) * z[1], (0.0, 2.0), 0, 1)
    assert table[(1, 1)] == pytest.approx(1.0, abs=1e-12)
    assert table[(1, 1)] == pytest.approx(fd, abs=1e-9)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_leibniz_rule_on_random_polynomials(seed):
    rng = np.random.default_rng(seed)
    sp = jets.jet_space(3, 4)
    f = Jet(sp, rng.uniform(-2, 2, sp.size))
    g = Jet(sp, rng.uniform(-2, 2, sp.size))
    alpha = tuple(rng.integers(0, 2, size=3))
    direct = (f * g).partial(alpha)
    expanded = oracles.leibniz_partial(f, g, alpha)
    assert direct == pytest.approx(expanded, rel=1e-12, abs=1e-12)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_formal_derivative_is_linear_and_leibniz(seed):
    rng = np.random.default_rng(seed)
    sp = jets.jet_space(3, 4)
    f = Jet(sp, rng.uniform(-2, 2, sp.size))
    g = Jet(sp, rng.uniform(-2, 2, sp.size))
    slot = int(rng.integers(0, 3))
    lin = (f + g).d(slot)
    assert np.allclose(lin.coeffs, (f.d(slot) + g.d(slot)).coeffs,
                       rtol=1e-13, atol=1e-13)
    prod = (f * g).d(slot)
    leib = f.d(slot) * g.truncated(3) + f.truncated(3) * g.d(slot)
    assert np.allclose(prod.coeffs, leib.coeffs, rtol=1e-13, atol=1e-13)


def test_mixed_partial_symmetry_by_nesting_order():
    rng = np.random.default_rng(7)
    sp = jets.jet_space(4, 4)
    f = Jet(sp, rng.uniform(-1, 1, sp.size))
    for u, v in ((0, 1), (0, 3), (2, 3)):
        a = f.d(u).d(v)
        b = f.d(v).d(u)
        assert np.array_equal(a.coeffs, b.coeffs)


def test_chain_consistency_against_richardson_fd():
    # composed elementary functions vs Richardson-extrapolated differences
    rng = np.random.default_rng(20240817)
    n = 2
    checked = 0
    for _ in range(20):
        src = exprgen.gen_expr(rng, n, depth=3)
        ast = exprdsl.parse(src, n)
        z = exprgen.gen_point(rng, n)
        lifted = lift_point(z, order=2)
        j = jets.as_jet(exprdsl.evaluate(ast, lifted), lifted[0])

        def f(zz):
            return exprdsl.evaluate(ast, list(zz))

        for slot in range(2 * n):
            alpha = tuple(1 if s == slot else 0 for s in range(2 * n))
            fd = oracles.fd_partial(f, z, slot)
            assert abs(j.partial(alpha) - fd) <= 1e-7 * (1 + abs(fd))
            checked += 1
    assert checked == 20 * 2 * n


def test_division_and_reciprocal():
    x = lift_variable(0, 2.0, dim=1, order=4)
    r = (1.0 + x) / (3.0 - x)
    f = lambda t: (1 + t) / (3 - t)
    assert r.value == pytest.approx(f(2.0))
    assert r.partial((1,)) == pytest.approx(oracles.fd_partial(lambda z: f(z[0]), [2.0], 0), abs=1e-9)


def test_domain_errors():
    x = lift_variable(0, 0.0, dim=1, order=2)
    with pytest.raises(JetDomainError):
        x.reciprocal()
    with pytest.raises(JetDomainError):
        x.sqrt()
    with pytest.raises(JetDomainError):
        x.log()
    with pytest.raises(JetDomainError):
        (x - 1.0).sqrt()
    with pytest.raises(JetDomainError):
        x.absolute()
    # negative power of zero
    with pytest.raises(JetDomainError):
        x.powi(-1)


def test_truncation_is_prefix():
    rng = np.random.default_rng(3)
    sp5 = jets.jet_space(3, 5)
    f = Jet(sp5, rng.uniform(-1, 1, sp5.size))
    g = f.truncated(2)
    assert g.order == 2
    assert np.array_equal(g.coeffs, f.coeffs[: g.space.size])


def test_mixed_order_arithmetic_truncates():
    a = lift_variable(0, 1.5, dim=2, order=4)
    b = lift_variable(1, -0.5, dim=2, order=2)
    c = a * b
    assert c.order == 2
    assert c.value == pytest.approx(-0.75)

