"""Seeded random generator of DSL expression strings, and hypothesis
strategies of `spraylab` command lines (`cli_argv`).

Expressions are built so that every sub-expression stays smooth and
finite-difference-friendly on the evaluation box [-1, 1]^{2n}: denominators
and sqrt/log arguments are bounded away from zero by construction, exp
arguments are damped.
"""

import numpy as np
from hypothesis import strategies as st


def _leaf(rng, n):
    r = rng.random()
    if r < 0.4:
        return f"x{rng.integers(1, n + 1)}"
    if r < 0.8:
        return f"y{rng.integers(1, n + 1)}"
    return f"{rng.uniform(0.3, 2.5):.3f}"


def gen_expr(rng: np.random.Generator, n: int, depth: int = 3) -> str:
    """One random expression over x1..xn, y1..yn."""
    if depth <= 0:
        return _leaf(rng, n)
    op = rng.integers(0, 9)
    a = gen_expr(rng, n, depth - 1)
    if op == 0:
        return f"({a} + {gen_expr(rng, n, depth - 1)})"
    if op == 1:
        return f"({a} - {gen_expr(rng, n, depth - 1)})"
    if op == 2:
        return f"({a}) * ({gen_expr(rng, n, depth - 1)})"
    if op == 3:
        # denominator bounded below by 1.5
        return f"({a}) / (1.5 + ({gen_expr(rng, n, depth - 1)})^2)"
    if op == 4:
        return f"({a})^{rng.integers(2, 4)}"
    if op == 5:
        return f"sqrt(0.5 + ({a})^2)"
    if op == 6:
        return f"log(1.5 + ({a})^2)"
    if op == 7:
        return f"sin({a})"
    if op == 8:
        return f"cos({a})" if rng.random() < 0.5 else f"exp(({a}) / 8)"
    return a


def gen_point(rng: np.random.Generator, n: int):
    """A random evaluation point in [-1, 1]^{2n}."""
    return tuple(rng.uniform(-1.0, 1.0, size=2 * n))



# -- CLI argument lists for the exit-code fuzz ----------------------------------
#
# Family specs and flag combinations as the `spraylab` command line takes
# them: valid ones, and edge inputs that must end in exit code 2 with a
# one-line message (n = 1, unknown keys, y in an x-only entry, an indefinite
# or singular metric, overflowing parameters, malformed specs).

X_EXPRS = ("0", "1", "-1", "x1", "1+x2^2", "1+x1^2", "x1*x2/2", "0.2*x2",
           "-0.1*x1", "exp(x1)", "log(x1)", "1/x1", "y1", "2+x1", "x1/0")
NUMBERS = ("1", "0.5", "-0.5", "0", "-5", "1e308", "x")
SIGMAS = ("1", "exp(x1)", "1+0.5*x1^2", "0", "-1", "x1", "y1", "log(x1)", "1/")


def _call(name, **params):
    """The spec `name(key=value, ...)` with each value drawn from its strategy."""
    return st.fixed_dictionaries(params).map(
        lambda d: f"{name}(" + ",".join(f"{k}={v}" for k, v in d.items()) + ")")


def family_specs():
    """`--spray` specs of every family, some of them malformed."""
    n = st.sampled_from(("1", "2", "3", "2.5", "abc"))
    num, ex = st.sampled_from(NUMBERS), st.sampled_from(X_EXPRS)
    return st.one_of(
        st.sampled_from(("flat", "sphere", "custom", "nope(g11=1)", "sphere(n=3",
                         "sphere(3)", "flat(=1)", "flat(kappa=1)")),
        _call("flat", n=n, box=num),
        _call("sphere", n=n, kappa=num),
        _call("riemannian", g11=ex, g22=ex, g12=ex),
        _call("example72", A=ex, B=ex, C=ex, D=ex, f=ex),
        _call("randers", a11=ex, a22=ex, a12=ex, b1=ex, b2=ex, box=num))


def cli_argv():
    """`spraylab evaluate|verify` argument lists: a family spec and flags
    (one point unless --points is drawn)."""
    def flag(*choices):
        return st.sampled_from(((),) + choices)

    parts = st.tuples(
        st.sampled_from(("evaluate", "verify")), family_specs(),
        flag(("--points", "0"), ("--points", "2")),
        flag(("--seed", "5"), ("--seed", "-1")),
        flag(("--order", "0"), ("--order", "3"), ("--order", "7")),
        st.lists(st.sampled_from(SIGMAS), max_size=2),
        flag(("--format", "text")),
        flag(("--tol", "homogeneity=1e-30"), ("--tol", "homogeneity=nan")))
    return parts.map(lambda t: [
        t[0], "--spray", t[1], *(t[2] or ("--points", "1")), *t[3], *t[4],
        *(a for s in t[5] for a in ("--sigma", s)), *t[6], *t[7]])
