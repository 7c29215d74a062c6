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

A block jet holds the jets of several points at once: its coefficients carry
one leading point axis, ``coeffs[point, pos]``, in the same class and ops, so
that carrier-generic code (expression evaluation, linear solves) runs once
per block of points.  Each point's row holds the bits of that point's own
evaluation: arithmetic is elementwise per row, a product is one
`np.bincount` whose bins are offset by point * size (bincount adds each
bin's terms in input order, so each row sums in the per-point order), and
every value-dependent step decides per point: the series of the analytic
functions are the same `math` calls on each point's value, the sign of
`absolute` is taken per row, and a domain error at any point raises.  A
branch that cannot be taken per point raises `BlockSplit`.  Per-point jets
and floats mix with block jets by broadcasting.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


class JetDomainError(ArithmeticError):
    """An operation left the domain where the expansion stays finite."""


class BlockSplit(Exception):
    """A data-dependent branch goes different ways at the points of a block
    jet: the caller evaluates the points one by one."""


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
        self._block_bins = {}
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

    def _block_sum(self, w) -> np.ndarray:
        """The coefficients [point, pos] of a product of block jets from its
        terms w[point, pair] (`_product_table` order): one bincount, each
        point's bins offset by point * size, so each bin adds its terms in
        the order of the per-point product."""
        points = len(w)
        bins = self._block_bins.get(points)
        if bins is None:
            it = self._product_table()[2]
            bins = self._block_bins[points] = (
                it + self.size * np.arange(points)[:, None]).ravel()
        return np.bincount(bins, weights=w.ravel(), minlength=points * self.size
                           ).reshape(points, self.size)

    def _deriv_table(self, slot):
        if slot not in self._deriv:
            m = self.size_at[self.order - 1] if self.order >= 1 else 0
            unit = self.weights[0] + self.weights[slot + 1]
            src = self.positions(self._keys[:m] + unit)
            mult = self.rows[:m, slot] + 1.0
            self._deriv[slot] = (src, mult)
        return self._deriv[slot]


class Jet:
    """Truncated Taylor expansion of a smooth function at a point, or of one
    function at each point of a block (`coeffs[point, pos]`, see the module
    doc); `value` is then one float per point, an array."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = coeffs

    # -- construction -------------------------------------------------------

    @staticmethod
    def constant(value, dim: int, order: int) -> "Jet":
        """The constant `value`; an array of values makes a block jet."""
        sp = jet_space(dim, order)
        c = np.zeros(value.shape + (sp.size,) if isinstance(value, np.ndarray)
                     else sp.size)
        c[..., 0] = value
        return Jet(sp, c)

    @staticmethod
    def variable(slot: int, value, dim: int, order: int) -> "Jet":
        if not 0 <= slot < dim:
            raise ValueError(f"variable slot {slot} out of range for dim {dim}")
        c = Jet.constant(value, dim, order).coeffs
        if order >= 1:
            c[..., dim - slot] = 1.0    # (degree, lex) order: x^slot's unit exponent
        return Jet(jet_space(dim, order), c)

    # -- basic queries ------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def value(self):
        """Value of the function at the expansion point (a float), or at
        each point of a block (an array)."""
        c = self.coeffs
        return float(c[0]) if c.ndim == 1 else c[:, 0].copy()

    def row(self, i: int) -> "Jet":
        """Point i's jet of a block jet; a per-point jet is its own row."""
        return Jet(self.space, self.coeffs[i]) if self.coeffs.ndim == 2 else self

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
        return Jet(sp, self.coeffs[..., : sp.size])

    def d(self, slot: int) -> "Jet":
        """Jet of the partial derivative with respect to variable `slot`."""
        if self.order < 1:
            raise ValueError("jet order too low to differentiate")
        if not 0 <= slot < self.dim:
            raise ValueError(f"slot {slot} out of range")
        sp = jet_space(self.dim, self.order - 1)
        src, mult = self.space._deriv_table(slot)
        c = self.coeffs
        return Jet(sp, (c[src] if c.ndim == 1 else c[:, src]) * mult)

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
        c.T[0] += other     # the constant term, of each point's row on a block
        return Jet(self.space, c)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            a, b = self._align(other)
            return Jet(a.space, a.coeffs - b.coeffs)
        c = self.coeffs.copy()
        c.T[0] -= other
        return Jet(self.space, c)

    def __rsub__(self, other):
        c = -self.coeffs
        c.T[0] += other
        return Jet(self.space, c)

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self._align(other)
            ia, ib, it = a.space._product_table()
            ca, cb = a.coeffs, b.coeffs
            if ca.ndim == cb.ndim == 1:
                return Jet(a.space, np.bincount(it, weights=ca[ia] * cb[ib],
                                                minlength=a.space.size))
            return Jet(a.space, a.space._block_sum(ca[..., ia] * cb[..., ib]))
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

    def _compose(self, series_of) -> "Jet":
        """Evaluate sum_m s[m] * (self - value)^m by Horner's rule, with
        s = series_of(value, order) computed per point on a block."""
        v = self.value
        if self.coeffs.ndim == 1:
            series = series_of(v, self.order)
        else:
            series = [np.array(col) for col in
                      zip(*(series_of(a, self.order) for a in v.tolist()))]
        t = self - v
        acc = Jet.constant(series[-1], self.dim, self.order)
        for cm in reversed(series[:-1]):
            acc = acc * t + cm
        return acc

    def reciprocal(self) -> "Jet":
        return self._compose(_reciprocal_series)

    def sqrt(self) -> "Jet":
        return self._compose(_sqrt_series)

    def exp(self) -> "Jet":
        return self._compose(_exp_series)

    def log(self) -> "Jet":
        return self._compose(_log_series)

    def sin(self) -> "Jet":
        return self._compose(_sin_series)

    def cos(self) -> "Jet":
        return self._compose(_cos_series)

    def absolute(self) -> "Jet":
        a0 = self.value
        if np.any(a0 == 0.0):
            raise JetDomainError("abs is not differentiable at zero")
        if self.coeffs.ndim == 1:
            return self if a0 > 0 else -self
        return Jet(self.space, np.where((a0 > 0)[:, None], self.coeffs, -self.coeffs))

    def __repr__(self):
        if self.coeffs.ndim == 2:
            return f"Jet(dim={self.dim}, order={self.order}, {len(self.coeffs)} points)"
        head = ", ".join(
            f"{e}:{c:.6g}" for e, c in zip(self.space.exponents[:6], self.coeffs[:6])
            if c != 0.0)
        return f"Jet(dim={self.dim}, order={self.order}, [{head or '0'}...])"


# -- Taylor series of the analytic functions at one value --------------------

def _reciprocal_series(a0: float, order: int) -> list:
    if a0 == 0.0:
        raise JetDomainError("division by zero")
    return [(-1.0) ** m / a0 ** (m + 1) for m in range(order + 1)]


def _sqrt_series(a0: float, order: int) -> list:
    if a0 <= 0.0:
        raise JetDomainError(f"sqrt of non-positive value {a0}")
    series = [math.sqrt(a0)]
    for m in range(1, order + 1):
        series.append(series[-1] * (0.5 - (m - 1)) / (m * a0))
    return series


def _exp_series(a0: float, order: int) -> list:
    e = exp(a0)
    return [e / math.factorial(m) for m in range(order + 1)]


def _log_series(a0: float, order: int) -> list:
    if a0 <= 0.0:
        raise JetDomainError(f"log of non-positive value {a0}")
    series = [math.log(a0)]
    for m in range(1, order + 1):
        series.append((-1.0) ** (m - 1) / (m * a0 ** m))
    return series


def _sin_series(a0: float, order: int) -> list:
    s, c = math.sin(a0), math.cos(a0)
    cycle = (s, c, -s, -c)
    return [cycle[m % 4] / math.factorial(m) for m in range(order + 1)]


def _cos_series(a0: float, order: int) -> list:
    s, c = math.sin(a0), math.cos(a0)
    cycle = (c, -s, -c, s)
    return [cycle[m % 4] / math.factorial(m) for m in range(order + 1)]


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
        out.coeffs.T[0] = a.value / b.value
    else:
        out = inv * a
        out.coeffs.T[0] = a / b.value
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
    """Lift a full coordinate tuple, returning one jet per variable; an array
    of points [point, variable] lifts to block jets."""
    coords = np.asarray(coords, dtype=float)
    dim = coords.shape[-1]
    return [Jet.variable(i, coords[..., i], dim, order) for i in range(dim)]


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
    if c.ndim == 2:     # a block: every point's row
        return all(_is_coordinate(Jet(space, row), slot, space) for row in c)
    return c[space.dim - slot] == 1.0 and np.count_nonzero(c) == 1 + (c[0] != 0.0)


def small_lift(vs, first: int = 0):
    """`lift_point(values, K)` in len(vs) variables when `vs` are the
    coordinate jets of slots first, first + 1, ... of one lift in more
    variables (`lift_point(x + y, K)[:n]` for first = 0, `[n:]` for
    first = n), block jets for a block lift; None for any other carriers."""
    vs = list(vs)
    space = getattr(vs[0], "space", None)
    if space is None or space.dim <= len(vs) or not all(
            _is_coordinate(j, first + i, space) for i, j in enumerate(vs)):
        return None
    return lift_point(np.array([j.coeffs.T[0] for j in vs]).T, space.order)


def map_jets(f, v):
    """`v` with f applied to every jet in it (nested in lists or tuples), once
    per jet object: a jet met twice maps to one result.  Other values pass
    through."""
    memo = {}

    def one(v):
        if type(v) is Jet:
            out = memo.get(id(v))
            if out is None:
                out = memo[id(v)] = f(v)
            return out
        if isinstance(v, (list, tuple)):
            out = [one(u) for u in v]
            return out if type(v) is list else type(v)(out)
        return v

    return one(v)


def embed(v, dim: int):
    """`v` with every jet in it (`map_jets`), a jet of the leading variables,
    embedded into jet_space(dim, order) through `_embed_map`, zeros
    elsewhere."""
    def one(j):
        sp = jet_space(dim, j.order)
        c = np.zeros(j.coeffs.shape[:-1] + (sp.size,))
        c.T[_embed_map(j.dim, dim, j.order)] = j.coeffs.T
        return Jet(sp, c)

    return map_jets(one, v)


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

