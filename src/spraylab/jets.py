"""Exact forward-mode differentiation with truncated multivariate Taylor jets.

A :class:`Jet` stores the Taylor expansion of a smooth function at a point,
truncated at a total order K, over ``dim`` variables.  Coefficients are kept
in normalized form (``coeffs[pos(alpha)] = d^alpha f / alpha!``), so that
multiplication is plain truncated polynomial multiplication and every partial
derivative up to order K is recovered exactly (to float roundoff), with no
step-size error.

Jets of the same dimension but different orders mix freely: binary operations
truncate to the lower order, and :meth:`Jet.d` (the formal derivative, i.e.
the jet of the derivative function) lowers the order by one.  The multi-index
table is sorted by (total degree, lexicographic), which makes the table of
order K-1 a prefix of the table of order K so truncation is a slice.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


class JetDomainError(ArithmeticError):
    """An operation left the domain where the expansion stays finite."""


@lru_cache(maxsize=None)
def _exponent_rows(dim: int, degree: int) -> np.ndarray:
    """All exponents of length `dim` and total degree `degree`, as the rows
    of an int8 array in lexicographic order."""
    if dim == 1:
        return np.array([[degree]], dtype=np.int8)
    blocks = []
    for head in range(degree + 1):
        tail = _exponent_rows(dim - 1, degree - head)
        blocks.append(np.column_stack((np.full(len(tail), head, np.int8), tail)))
    return np.concatenate(blocks)


@lru_cache(maxsize=None)
def jet_space(dim: int, order: int) -> "JetSpace":
    return JetSpace(dim, order)


class JetSpace:
    """Shared index tables for all jets of one (dim, order) signature.

    The tables are built with array operations.  With B = order + 1, an
    exponent e has the key |e| B^dim + sum_d e_d B^(dim - 1 - d), which
    increases in (degree, lex) order, the order of the positions.  The
    entries of a sum of two exponents of degree <= order stay below B, so
    its key is the sum of their keys, and `positions` finds an exponent by
    its key.
    """

    def __init__(self, dim: int, order: int):
        if dim < 1 or order < 0:
            raise ValueError("need dim >= 1 and order >= 0")
        self.dim = dim
        self.order = order
        # size of the prefix holding all indices of degree <= k
        self.size_at = tuple(math.comb(dim + k, dim) for k in range(order + 1))
        self.size = self.size_at[-1]
        self.rows = np.concatenate([_exponent_rows(dim, k) for k in range(order + 1)])
        self.exponents = tuple(map(tuple, self.rows.tolist()))
        self.index = dict(zip(self.exponents, range(self.size)))
        self.degree = self.rows.sum(axis=1, dtype=np.int64)
        self.weights = (order + 1) ** np.arange(dim, -1, -1, dtype=np.int64)
        self._keys = self.keys(self.rows)
        self._product = None
        self._deriv = {}
        self._fact = np.array([math.prod(math.factorial(a) for a in e)
                               for e in self.exponents], dtype=float)

    def keys(self, rows) -> np.ndarray:
        """The keys (see the class doc) of exponents given as rows."""
        out = rows.sum(axis=1, dtype=np.int64) * self.weights[0]
        for d in range(self.dim):
            out += rows[:, d] * self.weights[d + 1]
        return out

    def positions(self, keys) -> np.ndarray:
        """Positions of the exponents with these keys."""
        return np.searchsorted(self._keys, keys)

    def _product_table(self):
        """Position pairs (i, j) whose degrees sum to <= order, i major and
        j ascending (the summation order of `np.bincount`), and the position
        of each pair's exponent sum."""
        if self._product is None:
            # positions are degree-sorted, so valid partners form a prefix
            counts = np.array(self.size_at)[self.order - self.degree]
            ia = np.repeat(np.arange(self.size), counts)
            ib = np.arange(len(ia)) - np.repeat(np.cumsum(counts) - counts, counts)
            self._product = (ia, ib, self.positions(self._keys[ia] + self._keys[ib]))
        return self._product

    def _deriv_table(self, slot):
        if slot not in self._deriv:
            m = self.size_at[self.order - 1] if self.order >= 1 else 0
            unit = self.weights[0] + self.weights[slot + 1]
            src = self.positions(self._keys[:m] + unit)
            mult = self.rows[:m, slot] + 1.0
            self._deriv[slot] = (src, mult)
        return self._deriv[slot]


class Jet:
    """Truncated Taylor expansion of a smooth function at a point."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = coeffs

    # -- construction -------------------------------------------------------

    @staticmethod
    def constant(value: float, dim: int, order: int) -> "Jet":
        sp = jet_space(dim, order)
        c = np.zeros(sp.size)
        c[0] = value
        return Jet(sp, c)

    @staticmethod
    def variable(slot: int, value: float, dim: int, order: int) -> "Jet":
        if not 0 <= slot < dim:
            raise ValueError(f"variable slot {slot} out of range for dim {dim}")
        sp = jet_space(dim, order)
        c = np.zeros(sp.size)
        c[0] = value
        if order >= 1:
            unit = tuple(1 if i == slot else 0 for i in range(dim))
            c[sp.index[unit]] = 1.0
        return Jet(sp, c)

    # -- basic queries ------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def value(self) -> float:
        """Value of the function at the expansion point."""
        return float(self.coeffs[0])

    def partial(self, alpha) -> float:
        """True partial derivative d^alpha f at the point (factorial-corrected)."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dim or any(a < 0 for a in alpha):
            raise ValueError(f"bad multi-index {alpha} for dim {self.dim}")
        if sum(alpha) > self.order:
            raise ValueError(
                f"multi-index degree {sum(alpha)} exceeds jet order {self.order}")
        pos = self.space.index[alpha]
        return float(self.coeffs[pos] * self.space._fact[pos])

    def truncated(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError("cannot raise the order of a jet")
        if order == self.order:
            return self
        sp = jet_space(self.dim, order)
        return Jet(sp, self.coeffs[: sp.size])

    def d(self, slot: int) -> "Jet":
        """Jet of the partial derivative with respect to variable `slot`."""
        if self.order < 1:
            raise ValueError("jet order too low to differentiate")
        if not 0 <= slot < self.dim:
            raise ValueError(f"slot {slot} out of range")
        sp = jet_space(self.dim, self.order - 1)
        src, mult = self.space._deriv_table(slot)
        return Jet(sp, self.coeffs[src] * mult)

    # -- arithmetic ---------------------------------------------------------

    def _align(self, other):
        if self.space is other.space:   # one JetSpace per (dim, order)
            return self, other
        if self.dim != other.dim:
            raise ValueError("jets of different dimension cannot be combined")
        k = min(self.order, other.order)
        return self.truncated(k), other.truncated(k)

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = self._align(other)
            return Jet(a.space, a.coeffs + b.coeffs)
        c = self.coeffs.copy()
        c[0] += other
        return Jet(self.space, c)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            a, b = self._align(other)
            return Jet(a.space, a.coeffs - b.coeffs)
        c = self.coeffs.copy()
        c[0] -= other
        return Jet(self.space, c)

    def __rsub__(self, other):
        c = -self.coeffs
        c[0] += other
        return Jet(self.space, c)

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self._align(other)
            ia, ib, it = a.space._product_table()
            c = np.bincount(it, weights=a.coeffs[ia] * b.coeffs[ib],
                            minlength=a.space.size)
            return Jet(a.space, c)
        return Jet(self.space, self.coeffs * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return quotient(self, other, other.reciprocal())
        if other == 0:
            raise JetDomainError("division by zero")
        return Jet(self.space, self.coeffs / other)

    def __rtruediv__(self, other):
        return quotient(other, self, self.reciprocal())

    def __pow__(self, k):
        if not isinstance(k, (int, np.integer)):
            raise TypeError("jet powers must have integer exponents")
        return self.powi(int(k))

    def powi(self, k: int) -> "Jet":
        if k < 0:
            return self.reciprocal().powi(-k)
        result = Jet.constant(1.0, self.dim, self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- analytic functions -------------------------------------------------

    def _compose(self, series) -> "Jet":
        """Evaluate sum_m series[m] * (self - value)^m by Horner's rule."""
        t = self - self.value
        acc = Jet.constant(series[-1], self.dim, self.order)
        for cm in reversed(series[:-1]):
            acc = acc * t + cm
        return acc

    def reciprocal(self) -> "Jet":
        a0 = self.value
        if a0 == 0.0:
            raise JetDomainError("division by zero")
        series = [(-1.0) ** m / a0 ** (m + 1) for m in range(self.order + 1)]
        return self._compose(series)

    def sqrt(self) -> "Jet":
        a0 = self.value
        if a0 <= 0.0:
            raise JetDomainError(f"sqrt of non-positive value {a0}")
        series = [math.sqrt(a0)]
        for m in range(1, self.order + 1):
            series.append(series[-1] * (0.5 - (m - 1)) / (m * a0))
        return self._compose(series)

    def exp(self) -> "Jet":
        e = exp(self.value)
        series = [e / math.factorial(m) for m in range(self.order + 1)]
        return self._compose(series)

    def log(self) -> "Jet":
        a0 = self.value
        if a0 <= 0.0:
            raise JetDomainError(f"log of non-positive value {a0}")
        series = [math.log(a0)]
        for m in range(1, self.order + 1):
            series.append((-1.0) ** (m - 1) / (m * a0 ** m))
        return self._compose(series)

    def sin(self) -> "Jet":
        s, c = math.sin(self.value), math.cos(self.value)
        cycle = (s, c, -s, -c)
        series = [cycle[m % 4] / math.factorial(m) for m in range(self.order + 1)]
        return self._compose(series)

    def cos(self) -> "Jet":
        s, c = math.sin(self.value), math.cos(self.value)
        cycle = (c, -s, -c, s)
        series = [cycle[m % 4] / math.factorial(m) for m in range(self.order + 1)]
        return self._compose(series)

    def absolute(self) -> "Jet":
        a0 = self.value
        if a0 == 0.0:
            raise JetDomainError("abs is not differentiable at zero")
        return self if a0 > 0 else -self

    def __repr__(self):
        head = ", ".join(
            f"{e}:{c:.6g}" for e, c in zip(self.space.exponents[:6], self.coeffs[:6])
            if c != 0.0)
        return f"Jet(dim={self.dim}, order={self.order}, [{head or '0'}...])"


# -- carrier-generic helpers -------------------------------------------------
#
# Library code that must run identically over floats and Jets (expression
# evaluation, generic linear solves) goes through these wrappers.  Float
# domain failures are normalized to JetDomainError so callers see one error
# type per failure mode regardless of the carrier.

def sqrt(v):
    if isinstance(v, Jet):
        return v.sqrt()
    if v <= 0.0:
        raise JetDomainError(f"sqrt of non-positive value {v}")
    return math.sqrt(v)


def exp(v):
    if isinstance(v, Jet):
        return v.exp()
    try:
        return math.exp(v)
    except OverflowError:
        raise JetDomainError(f"exp of {v} overflows") from None


def log(v):
    if isinstance(v, Jet):
        return v.log()
    if v <= 0.0:
        raise JetDomainError(f"log of non-positive value {v}")
    return math.log(v)


def sin(v):
    return v.sin() if isinstance(v, Jet) else math.sin(v)


def cos(v):
    return v.cos() if isinstance(v, Jet) else math.cos(v)


def absolute(v):
    if isinstance(v, Jet):
        return v.absolute()
    if v == 0.0:
        raise JetDomainError("abs is not differentiable at zero")
    return abs(v)


def divide(a, b):
    if not isinstance(b, Jet) and b == 0.0:
        raise JetDomainError("division by zero")
    return a / b


def quotient(a, b, inv):
    """a / b on any carriers, given inv, the reciprocal of b.

    For a jet b this is the product a * inv with its value pinned to the
    directly rounded quotient a / b, so that float and jet evaluations of the
    same expression agree exactly.  The division operators pass b's
    reciprocal; a linear solve passes the one it kept for its pivot b
    (`spray_core.factor_carrier`), which has the same bits.
    """
    if not isinstance(b, Jet):
        return divide(a, b)
    if isinstance(a, Jet):
        out = a * inv
        out.coeffs[0] = a.value / b.value
    else:
        out = inv * a
        out.coeffs[0] = a / b.value
    return out


def powi(v, k: int):
    """Integer power by square-and-multiply on any carrier.

    Floats take the same multiplication sequence as jets, so both carriers
    round identically and real evaluation matches the jet's constant term
    bit for bit.
    """
    if isinstance(v, Jet):
        return v.powi(k)
    if k < 0:
        if v == 0.0:
            raise JetDomainError("zero raised to a negative power")
        return 1.0 / powi(v, -k)
    result, base = 1.0, float(v)
    while k:
        if k & 1:
            result = result * base
        base = base * base if k > 1 else base
        k >>= 1
    return result


# -- public entry points ------------------------------------------------------

def lift_variable(slot: int, value: float, dim: int, order: int) -> Jet:
    """Jet of the coordinate function `slot` at the point where it equals `value`."""
    return Jet.variable(slot, value, dim, order)


def lift_point(coords, order: int):
    """Lift a full coordinate tuple, returning one jet per variable."""
    dim = len(coords)
    return [Jet.variable(i, float(v), dim, order) for i, v in enumerate(coords)]


@lru_cache(maxsize=None)
def _embed_map(n: int, dim: int, order: int) -> np.ndarray:
    """Position in jet_space(dim, order) of (e, 0...0) for each exponent e of
    jet_space(n, order), in the order of the smaller space."""
    small, big = jet_space(n, order), jet_space(dim, order)
    pad = np.zeros((small.size, dim - n), dtype=np.int8)
    return big.positions(big.keys(np.hstack((small.rows, pad))))


@lru_cache(maxsize=None)
def _xy_split(n: int, order: int):
    """Positions in jet_space(n, order) of the x half and of the y half of
    each exponent of jet_space(2n, order)."""
    big, small = jet_space(2 * n, order), jet_space(n, order)
    return tuple(small.positions(small.keys(big.rows[:, half]))
                 for half in (slice(None, n), slice(n, None)))


def _is_coordinate(j, slot: int, space: JetSpace) -> bool:
    """True when `j` is `Jet.variable(slot, ...)` in `space`."""
    if not isinstance(j, Jet) or j.space is not space:
        return False
    if space.order == 0:
        return True
    c = j.coeffs    # (degree, lex) order puts x^slot's unit exponent at dim - slot
    return c[space.dim - slot] == 1.0 and np.count_nonzero(c) == 1 + (c[0] != 0.0)


def small_lift(vs, first: int = 0):
    """`lift_point(values, K)` in len(vs) variables when `vs` are the
    coordinate jets of slots first, first + 1, ... of one lift in more
    variables (`lift_point(x + y, K)[:n]` for first = 0, `[n:]` for
    first = n); None for any other carriers."""
    vs = list(vs)
    space = getattr(vs[0], "space", None)
    if space is None or space.dim <= len(vs) or not all(
            _is_coordinate(j, first + i, space) for i, j in enumerate(vs)):
        return None
    return lift_point([j.value for j in vs], space.order)


def embed(v, dim: int):
    """`v` with every jet in it (nested in lists or tuples), a jet of the
    leading variables, embedded into jet_space(dim, order) through
    `_embed_map`, zeros elsewhere.  Other values pass through, and a jet met
    twice is embedded once."""
    memo = {}

    def one(v):
        if isinstance(v, (list, tuple)):
            return type(v)(one(u) for u in v)
        if not isinstance(v, Jet):
            return v
        out = memo.get(id(v))
        if out is None:
            sp = jet_space(dim, v.order)
            c = np.zeros(sp.size)
            c[_embed_map(v.dim, dim, v.order)] = v.coeffs
            out = memo[id(v)] = Jet(sp, c)
        return out

    return one(v)


def x_only(f, xs):
    """f(xs) for a map f of the leading coordinates alone, on small jets.

    When `xs` are the coordinate jets x^1..x^n of one lift in dim > n
    variables (`lift_point(x + y, K)[:n]`), f runs on `small_lift(xs)`, and
    its result is embedded into jet_space(dim, order) (`embed`).  The
    numbers are those of f(xs) bit for bit: both spaces sort exponents by
    (degree, lex), so the x-only exponents keep their relative order, and a
    product's x-only coefficient receives the same terms in the same order.
    Only a zero off the x-only positions may differ in sign (f(xs) leaves
    -0.0 there after a negative scalar factor), which no product result
    depends on.  Any other `xs` go to f unchanged.
    """
    small = small_lift(xs)
    return f(xs) if small is None else embed(f(small), xs[0].dim)


def partial(j: Jet, alpha) -> float:
    """Partial derivative d^alpha of the function represented by `j`."""
    return j.partial(alpha)


def as_jet(value, like: Jet) -> Jet:
    """Coerce a plain number to a constant jet matching `like`."""
    if isinstance(value, Jet):
        return value
    return Jet.constant(float(value), like.dim, like.order)


DEFAULT_ORDER = 5  # deep enough for every derived quantity in the library


def eval_derivatives(f, coords, order: int = DEFAULT_ORDER):
    """Complete derivative table of a smooth map at a point.

    `f` takes a list of carrier values (one per coordinate) and returns a
    carrier value or a sequence of them.  If the map consumes derivative
    orders internally (by differentiating its jet arguments), the lift is
    deepened until every output still carries `order` orders.  Returns one
    dict {multi-index: partial derivative} per output component.
    """
    lift_order = order
    while True:
        args = lift_point(coords, lift_order)
        out = f(args)
        if isinstance(out, (Jet, float, int)):
            out = [out]
        out = [as_jet(comp, args[0]) for comp in out]
        deficit = order - min(comp.order for comp in out)
        if deficit <= 0:
            break
        lift_order += deficit
    sp = jet_space(len(coords), order)
    return [{alpha: comp.partial(alpha) for alpha in sp.exponents}
            for comp in out]

