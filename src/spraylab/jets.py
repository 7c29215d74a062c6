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


def _multi_indices(dim, order):
    """All exponent tuples of length `dim` with total degree <= `order`."""
    if dim == 0:
        yield ()
        return
    for head in range(order + 1):
        for tail in _multi_indices(dim - 1, order - head):
            yield (head,) + tail


@lru_cache(maxsize=None)
def jet_space(dim: int, order: int) -> "JetSpace":
    return JetSpace(dim, order)


class JetSpace:
    """Shared index tables for all jets of one (dim, order) signature."""

    def __init__(self, dim: int, order: int):
        if dim < 1 or order < 0:
            raise ValueError("need dim >= 1 and order >= 0")
        self.dim = dim
        self.order = order
        exps = sorted(_multi_indices(dim, order), key=lambda e: (sum(e), e))
        self.exponents = tuple(exps)
        self.size = len(exps)
        degree = np.array([sum(e) for e in exps], dtype=np.int64)
        self.degree = degree
        self.index = {e: i for i, e in enumerate(exps)}
        # size of the prefix holding all indices of degree <= k
        self.size_at = tuple(int((degree <= k).sum()) for k in range(order + 1))
        self._product = None
        self._deriv = {}
        self._fact = np.array([math.prod(math.factorial(a) for a in e) for e in exps],
                              dtype=float)

    def _product_table(self):
        if self._product is None:
            ia, ib, it = [], [], []
            for i, ea in enumerate(self.exponents):
                da = self.degree[i]
                # positions are degree-sorted, so valid partners form a prefix
                for j in range(self.size_at[self.order - da]):
                    eb = self.exponents[j]
                    it.append(self.index[tuple(a + b for a, b in zip(ea, eb))])
                    ia.append(i)
                    ib.append(j)
            self._product = (np.array(ia), np.array(ib), np.array(it))
        return self._product

    def _deriv_table(self, slot):
        if slot not in self._deriv:
            m = self.size_at[self.order - 1] if self.order >= 1 else 0
            src = np.empty(m, dtype=np.int64)
            mult = np.empty(m, dtype=float)
            for t in range(m):
                e = list(self.exponents[t])
                e[slot] += 1
                src[t] = self.index[tuple(e)]
                mult[t] = e[slot]
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
            out = self * other.reciprocal()
            # pin the value to the directly rounded quotient so that float
            # and jet evaluations of the same expression agree exactly
            out.coeffs[0] = self.value / other.value
            return out
        if other == 0:
            raise JetDomainError("division by zero")
        return Jet(self.space, self.coeffs / other)

    def __rtruediv__(self, other):
        out = self.reciprocal() * other
        out.coeffs[0] = other / self.value
        return out

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
        e = math.exp(self.value)
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
    return v.exp() if isinstance(v, Jet) else math.exp(v)


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
    if isinstance(a, Jet) or isinstance(b, Jet):
        if not isinstance(b, Jet):
            if b == 0.0:
                raise JetDomainError("division by zero")
        return a / b
    if b == 0.0:
        raise JetDomainError("division by zero")
    return a / b


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

