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


def test_divide_raises_on_float_zero_divisor_only():
    x = lift_variable(0, 2.0, dim=2, order=3)
    z = lift_variable(1, 0.5, dim=2, order=3)
    for a, b in ((1.5, 0.0), (x, 0.0), (x, 0)):
        with pytest.raises(JetDomainError):
            jets.divide(a, b)
    for a, b in ((x, z), (1.5, z)):
        assert np.array_equal(jets.divide(a, b).coeffs, (a / b).coeffs)
    assert jets.divide(1.5, 0.5) == 3.0


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



def test_x_only_embeds_small_jets_and_passes_other_carriers_through():
    x = lift_point((0.3, -0.4), 3)
    full = lift_point((0.3, -0.4, 0.2, 0.5), 3)

    def f(xs):
        return [xs[0] * xs[1] - 3.0, (xs[0].exp() / (2.0 + xs[1]),)]

    out = jets.x_only(f, full[:2])
    ref = f(full[:2])
    assert out[0].dim == 4 and out[1][0].order == 3
    for a, b in ((out[0], ref[0]), (out[1][0], ref[1][0])):
        assert a.coeffs.tobytes() == b.coeffs.tobytes()
    # x-only exponents sit at the positions of (e, 0, 0) in the larger space
    small = f(x)[0]
    emb = jets._embed_map(2, 4, 3)
    assert np.array_equal(out[0].coeffs[emb], small.coeffs)
    assert np.count_nonzero(np.delete(out[0].coeffs, emb)) == 0
    # floats, jets already in n variables and jets that are not the
    # coordinates of a lift go to f unchanged
    assert jets.x_only(lambda xs: xs, [0.3, -0.4]) == [0.3, -0.4]
    assert jets.x_only(lambda xs: xs, x)[0] is x[0]
    scaled = [full[0] * 2.0, full[1]]
    assert jets.x_only(lambda xs: xs, scaled)[0] is scaled[0]
    assert jets.x_only(lambda xs: xs, [full[1], full[0]])[0] is full[1]


def _loop_tables(dim, order):
    """The index tables of jet_space(dim, order) by per-exponent and per-pair
    loops over exponent tuples: exponents, the exponent index, size_at, the
    product table and the derivative tables of every slot."""
    def indices(dim, order):
        if dim == 0:
            yield ()
            return
        for head in range(order + 1):
            for tail in indices(dim - 1, order - head):
                yield (head,) + tail

    exps = sorted(indices(dim, order), key=lambda e: (sum(e), e))
    index = {e: i for i, e in enumerate(exps)}
    size_at = tuple(sum(1 for e in exps if sum(e) <= k) for k in range(order + 1))
    ia, ib, it = [], [], []
    for i, ea in enumerate(exps):
        for j in range(size_at[order - sum(ea)]):
            it.append(index[tuple(a + b for a, b in zip(ea, exps[j]))])
            ia.append(i)
            ib.append(j)
    deriv = []
    for slot in range(dim):
        src, mult = [], []
        for e in exps[: size_at[order - 1] if order >= 1 else 0]:
            e = list(e)
            e[slot] += 1
            src.append(index[tuple(e)])
            mult.append(float(e[slot]))
        deriv.append((np.array(src, dtype=np.int64), np.array(mult)))
    return exps, index, size_at, (np.array(ia), np.array(ib), np.array(it)), deriv


def test_index_tables_match_the_loop_construction():
    # the tables are built with array operations; they must be the arrays
    # of the loop construction, in its pair order (the summation order of
    # `np.bincount`), for the (dim, order) of every zoo spray: n and 2n
    # variables for n = 2, 3, 4, orders 0-5
    for dim in (2, 3, 4, 6, 8):
        for order in range(6):
            sp = jets.JetSpace(dim, order)
            exps, index, size_at, product, deriv = _loop_tables(dim, order)
            assert sp.exponents == tuple(exps) and sp.index == index
            assert sp.size_at == size_at and sp.size == len(exps)
            assert np.array_equal(sp.degree, [sum(e) for e in exps])
            for got, ref in zip(sp._product_table(), product, strict=True):
                assert got.dtype == ref.dtype and np.array_equal(got, ref), (dim, order)
            for slot in range(dim):
                for got, ref in zip(sp._deriv_table(slot), deriv[slot], strict=True):
                    assert got.dtype == ref.dtype and np.array_equal(got, ref), (
                        dim, order, slot)


def test_exp_overflow_is_a_domain_error():
    with pytest.raises(JetDomainError, match="exp of 800.0 overflows"):
        jets.exp(800.0)
    with pytest.raises(JetDomainError, match="overflows"):
        lift_variable(0, 800.0, dim=2, order=2).exp()
    assert jets.exp(700.0) == math.exp(700.0)


# -- block jets: one leading point axis, each row the per-point op's bits -------

BLOCK_SIZES = ((2, 4), (3, 4), (4, 4), (6, 4), (8, 4))


def _block_operands(dim, order, points, seed):
    """Two block jets of random coefficients, with +0.0 and -0.0 among them
    and values kept away from zero (the domain of every op below), and
    their rows as per-point jets."""
    rng = np.random.default_rng(seed)
    sp = jets.jet_space(dim, order)
    out = []
    for _ in range(2):
        c = rng.uniform(-1.0, 1.0, (points, sp.size))
        c[rng.random(c.shape) < 0.2] = 0.0
        c[rng.random(c.shape) < 0.1] = -0.0
        c[:, 0] = rng.choice([-1.0, 1.0], points) * rng.uniform(0.2, 1.5, points)
        out.append(Jet(sp, c))
    return out


def _unary_ops(order):
    return {
        "neg": lambda a: -a, "truncated": lambda a: a.truncated(order - 1),
        "d": lambda a: a.d(a.dim - 1), "powi3": lambda a: a.powi(3),
        "powi-2": lambda a: a.powi(-2), "powi0": lambda a: a.powi(0),
        "reciprocal": Jet.reciprocal, "exp": Jet.exp, "sin": Jet.sin,
        "cos": Jet.cos, "absolute": Jet.absolute,
        "sqrt": lambda a: a.absolute().sqrt(), "log": lambda a: a.absolute().log(),
        "+s": lambda a: a + 0.75, "s+": lambda a: 0.75 + a, "-s": lambda a: a - 0.75,
        "s-": lambda a: 0.75 - a, "*s": lambda a: a * -1.25, "s*": lambda a: -1.25 * a,
        "/s": lambda a: a / 3.0, "s/": lambda a: 3.0 / a,
        "quotient-float": lambda a: jets.quotient(2.5, a, a.reciprocal()),
    }


BINARY_OPS = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
    "/": lambda a, b: a / b, "quotient": lambda a, b: jets.quotient(a, b, b.reciprocal()),
}


@given(st.sampled_from(BLOCK_SIZES), st.sampled_from((1, 2, 7)), st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_block_jet_ops_are_the_per_point_ops_row_by_row(size, points, seed):
    dim, order = size
    A, B = _block_operands(dim, order, points, seed)
    rows = [(A.row(i), B.row(i)) for i in range(points)]
    ops = [(name, lambda a, b, f=f: f(a)) for name, f in _unary_ops(order).items()]
    for name, f in ops + list(BINARY_OPS.items()):
        block = f(A, B)     # x^0 is the constant 1, one row for every point
        for i, (a, b) in enumerate(rows):
            one = f(a, b)
            assert one.space is block.space, name
            assert one.coeffs.tobytes() == block.row(i).coeffs.tobytes(), (name, i)
    # a per-point jet mixes with a block by broadcasting, row by row
    a0 = rows[0][0]
    for name, f in BINARY_OPS.items():
        block = f(a0, B)
        for i, (_, b) in enumerate(rows):
            assert f(a0, b).coeffs.tobytes() == block.row(i).coeffs.tobytes(), name


@pytest.mark.parametrize("dim, order", BLOCK_SIZES)
def test_a_block_with_one_row_outside_the_domain_raises(dim, order):
    A, _ = _block_operands(dim, order, 7, dim)
    for value, op in ((0.0, Jet.reciprocal), (0.0, Jet.absolute), (-0.5, Jet.sqrt),
                      (0.0, Jet.sqrt), (-0.5, Jet.log), (0.0, lambda a: a.powi(-1)),
                      (800.0, Jet.exp), (0.0, lambda a: 1.0 / a)):
        c = A.coeffs.copy()
        c[:, 0] = 0.5
        c[4, 0] = value
        with pytest.raises(JetDomainError):
            op(Jet(A.space, c))
        c[4, 0] = 0.5                   # every row inside: no error
        op(Jet(A.space, c))
