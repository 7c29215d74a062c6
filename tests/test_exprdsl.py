"""Expression language: grammar, spans, evaluation carriers, derivatives."""

import numpy as np
import pytest

from spraylab import exprdsl, jets
from spraylab.exprdsl import (Bin, Call, ExprDomainError, ExprSyntaxError,
                              Pow, Var, ast_equal, differentiate, evaluate,
                              parse, parse_spray_source, pretty)

import exprgen
import oracles


def test_parse_sum_of_power_and_product():
    ast = parse("y1^2 + 2*x2*y1*y2", 2)
    assert isinstance(ast, Bin) and ast.op == "+"
    assert isinstance(ast.left, Pow) and ast.left.exponent == 2
    assert isinstance(ast.left.base, Var) and ast.left.base.slot == 2
    # right side is a left-associated product chain
    node, factors = ast.right, 0
    while isinstance(node, Bin) and node.op == "*":
        node, factors = node.left, factors + 1
    assert factors == 3


def test_parse_function_over_sum():
    ast = parse("sqrt(y1^2+y2^2)", 2)
    assert isinstance(ast, Call) and ast.fn == "sqrt"
    assert isinstance(ast.arg, Bin) and ast.arg.op == "+"


def test_variable_index_exceeds_dimension():
    with pytest.raises(ExprSyntaxError, match="exceeds dimension"):
        parse("y3", 2)
    parse("y3", 3)  # fine at n = 3


def test_unknown_identifier_and_double_star():
    with pytest.raises(ExprSyntaxError, match="unknown identifier"):
        parse("foo + 1", 2)
    with pytest.raises(ExprSyntaxError, match="use '\\^'"):
        parse("x1**2", 2)


def test_power_requires_integer_literal():
    with pytest.raises(ExprSyntaxError, match="unsigned integer"):
        parse("x1^x2", 2)
    with pytest.raises(ExprSyntaxError, match="unsigned integer"):
        parse("x1^2.5", 2)


def test_precedence_structure():
    # a + b*c^2 parses as a + (b * (c^2))
    ast = parse("x1+x2*y1^2", 2)
    assert isinstance(ast, Bin) and ast.op == "+"
    assert isinstance(ast.right, Bin) and ast.right.op == "*"
    assert isinstance(ast.right.right, Pow)


def test_syntax_error_spans():
    try:
        parse("x1 + * 2", 2)
    except ExprSyntaxError as e:
        assert e.span.line == 1 and e.span.col == 6
    else:
        pytest.fail("expected a syntax error")


def test_evaluate_reals():
    assert evaluate(parse("y1^2", 2), [0, 0, 3.0, 0]) == 9.0
    # coefficient of the 2D polynomial family with f = x1*x2 at x=(1,2), y=(1,1)
    g1 = parse("x2*y1^2/3 + x1*y1*y2/3", 2)
    assert evaluate(g1, [1.0, 2.0, 1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)


def test_evaluate_over_jets_matches_fd():
    rng = np.random.default_rng(11)
    for _ in range(5):
        src = exprgen.gen_expr(rng, 2, depth=3)
        ast = parse(src, 2)
        z = exprgen.gen_point(rng, 2)
        lifted = jets.lift_point(z, 2)
        j = jets.as_jet(evaluate(ast, lifted), lifted[0])
        for slot in range(4):
            alpha = tuple(1 if s == slot else 0 for s in range(4))
            fd = oracles.fd_partial(lambda zz: evaluate(ast, list(zz)), z, slot)
            assert abs(j.partial(alpha) - fd) <= 1e-9 * (1 + abs(fd))


def test_carrier_coherence():
    # real evaluation equals the order-0 coefficient of the jet evaluation
    rng = np.random.default_rng(23)
    for _ in range(20):
        src = exprgen.gen_expr(rng, 2, depth=3)
        ast = parse(src, 2)
        z = exprgen.gen_point(rng, 2)
        real = evaluate(ast, list(z))
        lifted = jets.lift_point(z, 2)
        j = jets.as_jet(evaluate(ast, lifted), lifted[0])
        assert j.value == real


def test_round_trip_200_expressions():
    rng = np.random.default_rng(77)
    for _ in range(200):
        src = exprgen.gen_expr(rng, 3, depth=4)
        ast = parse(src, 3)
        again = parse(pretty(ast), 3)
        assert ast_equal(ast, again), f"round-trip failed for {src!r}"


def test_domain_error_carries_span():
    ast = parse("x1 + log(x2 - 5)", 2)
    try:
        evaluate(ast, [1.0, 1.0, 0.0, 0.0])
    except ExprDomainError as e:
        assert e.span.col == 6
    else:
        pytest.fail("expected a domain error")
    with pytest.raises(ExprDomainError):
        evaluate(parse("1/(x1-1)", 2), [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ExprDomainError):
        evaluate(parse("sqrt(x1)", 2), [-1.0, 0.0, 0.0, 0.0])


def test_differentiate_against_fd():
    rng = np.random.default_rng(5)
    for _ in range(10):
        src = exprgen.gen_expr(rng, 2, depth=3)
        ast = parse(src, 2)
        z = exprgen.gen_point(rng, 2)
        for slot in range(4):
            d = differentiate(ast, slot)
            fd = oracles.fd_partial(lambda zz: evaluate(ast, list(zz)), z, slot)
            assert evaluate(d, list(z)) == pytest.approx(fd, rel=1e-7, abs=1e-8)


def test_differentiate_shares_subtrees():
    ast = parse("sin(x1*x2) + x1*x2", 2)
    d = differentiate(ast, 0)
    # evaluating expression and derivative through one memo reuses the
    # shared x1*x2 subtree: just check both evaluate correctly
    vals = exprdsl.evaluate_many([ast, d], [0.3, 0.7, 0, 0])
    import math
    assert vals[0] == pytest.approx(math.sin(0.21) + 0.21)
    assert vals[1] == pytest.approx(math.cos(0.21) * 0.7 + 0.7)


def test_quotients_by_one_denominator_share_its_reciprocal(monkeypatch):
    # the sphere's g = 4/D and its three x-derivatives, whose denominators
    # are one node D^2: one memo table takes one jet reciprocal per
    # denominator node, and every quotient has the bits of a fresh a / b
    g = parse("4 / (1 + 1.0*(x1^2 + x2^2 + x3^2))^2", 3)
    asts = [g] + [differentiate(g, k) for k in range(3)]
    quotients, todo = {}, list(asts)
    while todo:
        node = todo.pop()
        if isinstance(node, Bin) and node.op == "/":
            quotients[id(node)] = node
        todo += [getattr(node, f) for f in ("left", "right", "child", "base", "arg")
                 if hasattr(node, f)]
    assert len({id(q.right) for q in quotients.values()}) == 2
    taken, recip = [], jets.Jet.reciprocal
    monkeypatch.setattr(jets.Jet, "reciprocal",
                        lambda self: taken.append(self) or recip(self))
    for order in (1, 3, 5):
        env = jets.lift_point((0.1, -0.3, 0.2, 0.5, 0.6, -0.7), order)
        memo, taken[:] = {}, []
        for a in asts:
            evaluate(a, env, memo)
        assert len(taken) == 2
        for q in quotients.values():
            a, b = evaluate(q.left, env), evaluate(q.right, env)
            assert memo[id(q)].coeffs.tobytes() == (a / b).coeffs.tobytes()


def test_unary_minus_and_negative_numbers():
    assert evaluate(parse("-x1^2", 2), [3.0, 0, 0, 0]) == -9.0
    assert evaluate(parse("--x1", 2), [3.0, 0, 0, 0]) == 3.0
    assert evaluate(parse("2*-x1", 2), [3.0, 0, 0, 0]) == -6.0


def test_scientific_notation():
    assert evaluate(parse("1e-2 + 2.5E3", 2), [0] * 4) == pytest.approx(2500.01)


# -- spray-definition files ------------------------------------------------------

GOOD = """
# a comment
dim = 2
G1 = x2*y1^2/3 + x1*y1*y2/3
G2 = x2*y1*y2/3 + x1*y2^2/3
sigma = exp(x1)
box = 0.9
"""


def test_spray_file_good():
    doc = parse_spray_source(GOOD)
    assert doc.dim == 2
    assert len(doc.coeffs) == 2
    assert pretty(doc.sigma) == "exp(x1)"
    assert doc.box == 0.9
    assert doc.metric is None


def test_spray_file_metric_block():
    doc = parse_spray_source(
        "dim = 2\na_11 = 1\na_22 = 1\na_12 = 0\nb_1 = 0.1*x2\n")
    assert doc.coeffs is None
    assert (1, 1) in doc.metric and (1, 2) in doc.metric
    assert 1 in doc.one_form


def test_spray_file_errors():
    with pytest.raises(ExprSyntaxError, match="missing or invalid 'dim'"):
        parse_spray_source("G1 = y1^2\n")
    with pytest.raises(ExprSyntaxError, match="missing coefficient G2"):
        parse_spray_source("dim = 2\nG1 = y1^2\n")
    with pytest.raises(ExprSyntaxError, match="not both"):
        parse_spray_source("dim = 2\nG1 = y1^2\nG2 = 0\na_11 = 1\n")
    with pytest.raises(ExprSyntaxError, match="duplicate key"):
        parse_spray_source("dim = 2\nG1 = y1^2\nG1 = y2^2\nG2 = 0\n")
    with pytest.raises(ExprSyntaxError, match="x variables only"):
        parse_spray_source("dim = 2\nG1 = y1^2\nG2 = 0\nsigma = y1\n")
    with pytest.raises(ExprSyntaxError, match="unknown key"):
        parse_spray_source("dim = 2\nG1 = y1^2\nG2 = 0\nwhat = 1\n")


def test_spray_file_error_cites_location():
    src = "dim = 2\nG1 = y1^2\nG2 = y1^2 + (y2\n"
    try:
        parse_spray_source(src)
    except ExprSyntaxError as e:
        assert e.span.line == 3
    else:
        pytest.fail("expected a syntax error with a file location")


def test_interning_merges_equal_nodes_at_equal_spans():
    # the same text at the same offsets is one node, child by child
    src = "4 / (1 + 1.0*(x1^2 + x2^2))^2"
    a, b = parse(src, 2), parse(src, 2)
    assert a is b
    # derived nodes carry no span, so equal derivatives merge too
    assert differentiate(a, 0) is differentiate(b, 0)
    assert exprdsl.interned(exprdsl.Num, 1.0, exprdsl._NOSPAN) is exprdsl._num(1)


def test_interning_keeps_spans_signed_zeros_and_no_dead_nodes():
    import gc
    import weakref
    src = "log(x1 + 0.5)"
    here, there = parse(src, 2), parse(src, 2, line_offset=3)
    assert here is not there and exprdsl.ast_equal(here, there)
    with pytest.raises(ExprDomainError, match="line 4, column 1"):
        evaluate(there, [-1.0, 0.0, 0.0, 0.0])
    zero = exprdsl.interned(exprdsl.Num, 0.0, exprdsl._NOSPAN)
    assert zero is not exprdsl.interned(exprdsl.Num, -0.0, exprdsl._NOSPAN)
    assert zero is not parse("0", 2)    # a parsed zero has a span
    # the table does not keep a node alive once no expression holds it
    probe = weakref.ref(parse("x1*x2 + 12345.678", 2))
    gc.collect()
    assert probe() is None
    assert not any(getattr(n, "value", None) == 12345.678
                   for n in exprdsl._INTERNED.values())


def test_custom_file_domain_error_cites_its_own_line(tmp_path, capsys):
    # sigma (line 2) and G1 (line 3) hold `log(x1 + 0.5)` at the same
    # offsets; G1 fails first, in the homogeneity check, and must cite line 3
    from spraylab import cli
    path = tmp_path / "twin.spray"
    path.write_text("dim = 2\nsigma = log(x1 + 0.5)\n"
                    "G1    = log(x1 + 0.5)*y1^2\nG2 = 0\n")
    doc = exprdsl.load_spray_file(path)
    assert doc.sigma is not doc.coeffs[0].left
    assert cli.main(["verify", "--file", str(path), "--points", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error: log: ") and "at line 3, column 9" in err
