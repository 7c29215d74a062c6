"""Sprays on a coordinate chart: Berwald connection, curvature tensors, zoo.

A spray is its coefficients G^i(x, y), positively 2-homogeneous in y: a
:class:`SprayChart` holds one function fn(xs, ys) -> [G^1, ..., G^n] that
runs over any arithmetic carrier (floats or jets), and new sprays come from
old ones by closures over their functions (`metric_spray_fn`,
`projective.with_projective_factor`).
All tensor work happens in a :class:`Frame`: the jets of G^i at one point,
from which connection coefficients, curvature tensors and their horizontal /
vertical derivatives follow.  The tensors are float tables of values and
partials read off G's jets (`Frame.table`), and their horizontal derivatives
are taken on those tables (`Frame.hpart`, `Frame.cov_h`), partials by the
product rule.  Jets hold only G, plus the scalars Pi and S where the
coefficients of a deformed spray need them.  Index convention for stored
components: the upper index comes first, so ``R4[0][i, j, k, l]`` holds the
curvature slot with upper i and lower j, k, l (antisymmetric in k, l).
The public tensor operations (`nonlinear_connection` ... `riemann_four_index`)
return the value table of the point's frame itself, a read-only float array;
`covariant_derivative_h` returns a new one.  Fields that these operations
differentiate (`horizontal_partial`, `covariant_derivative_h`) are carrier
functions f(xs, ys) too, evaluated on a frame's coordinate jets.
The float layer also runs on blocks of points (`Frame.block`): a frame over
the stacked jets of several points' frames, whose tables carry a leading
point axis, so that a reader of many points (`evaluate`, `verify`) makes
one numpy call per block and quantity.  A block holds as many points as
keep its deepest stacked table, the order-k partials of G, within
BLOCK_BYTES (`point_blocks`).  The frames of such a block are built from
one evaluation of the coefficients on block jets (`SprayChart.frames`,
`jets.Jet`), each point's frame from its row, with the bits of the point's
own build.
"""

from __future__ import annotations

import inspect
import itertools
import math
import operator
from functools import cached_property, lru_cache, reduce

import numpy as np

from . import exprdsl, jets
from .jets import Jet, JetDomainError
from .records import Frozen

EPS_Y = 1e-6
CROSS_CHECK_TOL = 1e-8   # direct R^i_k against y^j R^{ i}_{j kl} y^l
HOMOGENEITY_SCALES = (0.5, 2.0, 3.0)    # s in G(x, s y) = s^2 G(x, y)
HOMOGENEITY_TOL = 1e-9


class CrossCheckError(AssertionError):
    """Two independent computations of the same tensor disagreed."""


# -- geometry of the chart -----------------------------------------------------

class Box(Frozen):
    __slots__ = ("lo", "hi")

    def __init__(self, lo: tuple, hi: tuple):
        self._init(lo, hi)
        for i, (l, h) in enumerate(zip(self.lo, self.hi)):     # sampled uniformly
            if not (math.isfinite(h - l) and l < h):
                raise ValueError(f"domain box axis x{i + 1}: bounds [{l!r}, "
                                 f"{h!r}] must be finite with lower < upper "
                                 "and a finite width")

    @staticmethod
    def cube(n: int, half: float) -> "Box":
        return Box(tuple(-half for _ in range(n)), tuple(half for _ in range(n)))

    def contains(self, x) -> bool:
        return all(l <= v <= h for l, v, h in zip(self.lo, x, self.hi))

    def shrunk(self, frac: float) -> "Box":
        lo, hi = [], []
        for l, h in zip(self.lo, self.hi):
            c, r = 0.5 * (l + h), 0.5 * (h - l) * (1.0 - frac)
            lo.append(c - r)
            hi.append(c + r)
        return Box(tuple(lo), tuple(hi))

    def sample(self, rng) -> tuple:
        return tuple(rng.uniform(l, h) for l, h in zip(self.lo, self.hi))

    def check_sample(self) -> list:
        """The 20 x at which set-up checks a metric or a volume density: the
        draws of `Generator(0)`, the same in every run."""
        from ._rng import Generator
        rng = Generator(0)
        return [self.sample(rng) for _ in range(20)]


class PointTM(Frozen):
    """A chart point (x; y) with y bounded away from the zero section."""
    __slots__ = ("x", "y")

    def __init__(self, x: tuple, y: tuple):
        self._init(tuple(float(v) for v in x), tuple(float(v) for v in y))
        if math.sqrt(sum(v * v for v in self.y)) < EPS_Y:
            raise ValueError(f"|y| below {EPS_Y}; tensors are undefined at y = 0")

    @property
    def n(self) -> int:
        return len(self.x)

    def scaled(self, s: float) -> "PointTM":
        """The point (x; s y) on the same fibre."""
        return PointTM(self.x, tuple(s * v for v in self.y))


def rel_residual(diff, *refs, lead: int = 0):
    """Residual scaled by 1 + the largest component entering the identity.

    With `lead` leading point axes (the tables of a block, `Frame.block`) it
    is one residual per point, an array; otherwise a float.  A NaN component
    of a reference leaves the scale as it is (`np.fmax`)."""
    scale = 1.0
    for r in refs:
        r = np.abs(np.asarray(r, dtype=float))
        if r.size:
            scale = np.fmax(scale, 1.0 + r.max(axis=tuple(range(lead, r.ndim))))
    diff = np.abs(np.asarray(diff, dtype=float))
    out = diff.max(axis=tuple(range(lead, diff.ndim))) / scale
    return out if lead else float(out)


# -- generic linear algebra over carriers ---------------------------------------

def carrier_value(c):
    """The value of a carrier: a float, or one per point of a block jet."""
    return c.value if isinstance(c, Jet) else float(c)


def carrier_sum(terms):
    """Left-to-right sum ((t0 + t1) + t2) + ... of carriers (floats or jets)."""
    return reduce(operator.add, terms)


def factor_carrier(A):
    """Gaussian elimination with partial pivoting of an n*n carrier matrix.

    A is a nested list of carriers; pivots are chosen by the magnitude of the
    carrier value.  Returns one step per pivot k: (the row swapped into
    place k, the multipliers of rows k+1.., row k of U from the diagonal on,
    the reciprocal of the pivot), for `solve_factored`.  Pivot jets with
    equal coefficients (a diagonal of one expression) share one reciprocal.
    On block jets the pivot is chosen per point, the first of largest
    magnitude as `max` takes it; points that pivot on different rows (or
    meet a NaN, which `max` and `argmax` rank apart) raise `BlockSplit`.
    """
    n = len(A)
    a = [row[:] for row in A]
    steps, inverses = [], {}
    for k in range(n):
        mags = [abs(carrier_value(a[r][k])) for r in range(k, n)]
        if any(np.ndim(m) for m in mags):
            m = np.array(np.broadcast_arrays(*mags))    # [row, point]
            first = m.argmax(axis=0)
            if np.isnan(m).any() or (first != first[0]).any():
                raise jets.BlockSplit("the points of a block pivot on different rows")
            piv, zero = k + int(first[0]), (m[first[0]] == 0.0).any()
        else:
            piv = k + max(range(n - k), key=mags.__getitem__)
            zero = mags[piv - k] == 0.0
        if zero:
            raise JetDomainError("degenerate linear system (zero pivot)")
        a[k], a[piv] = a[piv], a[k]
        p = a[k][k]
        key = (p.space, p.coeffs.tobytes()) if isinstance(p, Jet) else k
        if key not in inverses:
            inverses[key] = jets.divide(1.0, p)
        inv = inverses[key]
        fs = []
        for r in range(k + 1, n):
            f = a[r][k] * inv
            for c in range(k + 1, n):
                a[r][c] = _minus_product(a[r][c], f, a[k][c])
            fs.append(f)
        steps.append((piv, fs, a[k][k:], inv))
    return steps


def _minus_product(acc, f, v):
    """acc - f * v on carriers.  The product is skipped when f is a jet with
    no nonzero coefficient and acc and v are jets of its space: its bincount
    would add zero terms to +0.0 (v finite), and acc - 0.0 is acc bit for
    bit.  A diagonal g leaves every multiplier and off-diagonal U entry so.
    On block jets the skip is per point: a point whose row of f is zero
    keeps its row of acc, where the product could turn 0 * inf into NaN."""
    if not (isinstance(f, Jet) and isinstance(acc, Jet) and isinstance(v, Jet)
            and acc.space is f.space is v.space):
        return acc - f * v
    if f.coeffs.ndim == 1:
        return acc - f * v if np.count_nonzero(f.coeffs) else acc
    zero = ~f.coeffs.any(axis=1)
    if zero.all():
        return acc
    out = acc - f * v
    if zero.any():
        out.coeffs = np.where(zero[:, None], acc.coeffs, out.coeffs)
    return out


def solve_factored(steps, B):
    """Solve A X = B from the steps of `factor_carrier(A)`.

    B is a list of right-hand sides (each a list of n carriers); they take
    the row swaps and updates of the elimination, then back-substitution
    divides by each pivot through its kept reciprocal (`jets.quotient`).
    Updates by zero jets are skipped (`_minus_product`).  Returns the list
    of solution vectors.
    """
    n = len(steps)
    bs = [col[:] for col in B]
    for k, (piv, fs, _, _) in enumerate(steps):
        for col in bs:
            col[k], col[piv] = col[piv], col[k]
            for r, f in enumerate(fs, start=k + 1):
                col[r] = _minus_product(col[r], f, col[k])
    out = []
    for col in bs:
        x = [None] * n
        for k in range(n - 1, -1, -1):
            _, _, u, inv = steps[k]
            acc = col[k]
            for c in range(k + 1, n):
                acc = _minus_product(acc, u[c - k], x[c])
            x[k] = jets.quotient(acc, u[0], inv)
        out.append(x)
    return out


def solve_carrier(A, B):
    """Solve A X = B by Gaussian elimination with partial pivoting (see
    `factor_carrier`); returns the list of solution vectors."""
    return solve_factored(factor_carrier(A), B)


def tensor_values(arr) -> np.ndarray:
    """Extract the point values from a tensor of jets."""
    arr = np.asarray(arr, dtype=object)
    out = np.empty(arr.shape, dtype=float)
    for idx in np.ndindex(arr.shape):
        out[idx] = carrier_value(arr[idx])
    return out


def _at(t, k: int, *ix):
    """t[..., *ix, :, ..., :] with k whole axes after `ix`: a table's index
    and slot axes are counted from the right, past any leading point axis."""
    return t[(Ellipsis,) + ix + (slice(None),) * k]


def plus_outer_y(X, v, c: float, yt) -> list:
    """X^i_k + c v_k y^i on tables [values(, first partials)], with `yt` the
    table of y^i (`Frame.y_table`)."""
    return [x + c * t for x, t in zip(X, _product("i,k->ik", yt, v))]


def _minus_delta(X: list, r) -> None:
    """X^i_k - r delta^i_k in place, on the tables of X and of the scalar r."""
    for q, (t, s) in enumerate(zip(X, r)):
        for m in range(t.shape[-1 - q]):
            d = _at(t, q, m, m)
            d -= s


def _frozen(tables: list) -> list:
    """Mark the arrays of a cached table read-only: every caller shares them."""
    for t in tables:
        t.flags.writeable = False
    return tables


class lazy_table:
    """A curvature table [values, first partials] of a frame (`Frame`),
    built by the decorated `build(frame, depth)` on its first read: values
    alone for a read of [0], the whole table for any other read (with the
    bits of `build(frame, 0)` in its values).  Most readers of a deep frame
    take the values alone; a reader of the whole table reads a slice first,
    so that it builds once.  A read of the attribute checks the frame's
    order (`Frame._depth`) and returns a copy of the descriptor bound to the
    frame; what it builds is kept in the frame's dict under `_` + its name.
    The frame does not keep the bound copy, which refers to it, so the two
    make no reference cycle and a frame is freed by reference counting.
    Like `cached_property`, an entry under its own name in the frame's dict
    takes its place."""

    def __init__(self, build):
        self.build, self.name, self.__doc__ = build, build.__name__, build.__doc__

    def __get__(self, fr, owner=None):
        if fr is None:
            return self
        bound = object.__new__(lazy_table)
        bound.__dict__.update(vars(self), fr=fr, depth=fr._depth(self.name))
        return bound

    def __len__(self):
        return self.depth + 1

    def __getitem__(self, i):
        depth = 0 if i == 0 else self.depth     # a slice is not 0
        kept, key = self.fr.__dict__, "_" + self.name
        t = kept.get(key, ())
        if len(t) <= depth:
            t = kept[key] = _frozen(self.build(self.fr, depth))
        return t[i]


@lru_cache(maxsize=None)
def _partial_reads(dim: int, k: int):
    """Order-k prefix size and (positions, alpha!) of the partials of order 0..k.

    One more slot a moves a position to where `Jet.d(a)` reads from; positions
    of degree <= k agree in the index tables of every order >= k.
    """
    sp = jets.jet_space(dim, k)
    pos = [np.array(0)]
    for _ in range(k):
        pos.append(np.stack([sp._deriv_table(a)[0][pos[-1]] for a in range(dim)], -1))
    return sp.size, [(q, sp._fact[q]) for q in pos]


@lru_cache(maxsize=None)
def _product_terms(spec: str, q: int) -> list:
    """(einsum subscripts, slots on A) of each order-q term of `_product`;
    a leading `...` carries any point axis."""
    a, b, c = spec.replace("->", ",").split(",")
    s, terms = "zw"[:q], []
    for on_a in itertools.product((True, False), repeat=q):
        p = "".join(x for x, t in zip(s, on_a) if t)
        r = "".join(x for x, t in zip(s, on_a) if not t)
        terms.append((f"...{a}{p},...{b}{r}->...{c}{s}", len(p)))
    return terms


def _product(spec: str, A: list, B: list) -> list:
    """Table of the einsum `spec` of two tables [values, first, ...], by the
    product rule: each slot of a partial falls on A or on B."""
    return [carrier_sum([np.einsum(sub, A[i], B[q - i])
                         for sub, i in _product_terms(spec, q)])
            for q in range(min(len(A), len(B)))]


# -- the jet workshop ------------------------------------------------------------

class Frame:
    """Jets of one spray at one point, and the derived tensor fields.

    The frame's order bounds how many derivatives remain available: every
    vertical (.d on a y slot) or horizontal derivative consumes one order.
    Its jets come from one evaluation of the spray's coefficients, at its
    point, or are its row `G` of one evaluation at a block of points
    (`SprayChart.frames`), which holds the same bits.  A reader
    that needs fewer orders takes the leading tables of each quantity: they
    hold the bits of a frame built at the lower order (`table` reads the
    prefix that jets of every order share).
    Its jets are G, the coordinates (`yj`, `xj`) and the scalar Pi, from
    which S is built; tensors are float tables, cached lazily, read off one
    table of G's partials per frame, at the frame's order (`_g_partials`),
    or computed from those.  R2, Ric and R are [values] at order 2 and gain
    a partial per order up to 4; the other curvature tables are [values] at
    order 3 and [values, first partials] deeper, the slot last as in
    `table`; R4, T and chi are built on their first read (`lazy_table`).
    `hpart` and `cov_h` take the horizontal derivative of any such
    table, one partial shorter, under the frame's own connection.

    A block (`Frame.block`) is a frame over the stacked jets of several
    points' frames: every float table gains a leading point axis (`lead`
    is 1), one entry per point, and runs the same code, since every einsum
    spec starts with `...` and every slice counts its index and slot axes
    from the right (`_at`) or past the point axis (`_slots`).  Per point,
    its tables hold the bits of the point's own frame.  A block has no point
    of its own, so no coordinate jets and no Pi (`table_of` stacks each
    point frame's); `point_blocks` bounds its size.
    """

    lead = 0        # leading point axes of every float table (1 on a block)

    def __init__(self, spray: "SprayChart", point: PointTM, order: int, G=None):
        self.spray = spray
        self.point = point
        self.order = order
        self.n = spray.n
        self.y = np.array(point.y)
        # G given: the point's row of a block build (`SprayChart.frames`)
        self.G = spray._make_coefficient_jets(self) if G is None else G

    @classmethod
    def block(cls, frames: list, order: int) -> "Frame":
        """The block over `frames` (one spray's, each of order >= `order`),
        as a frame of order `order`: G is their jets stacked as an object
        array [point, i], y their y^i as [point, i].  It is not a frame
        build: no coefficients are evaluated (`__init__` is not run)."""
        fr = cls.__new__(cls)
        fr.spray, fr.point, fr.order, fr.n = frames[0].spray, None, order, frames[0].n
        fr.lead, fr.frames = 1, frames
        fr.y = np.array([f.y for f in frames])
        fr.G = np.empty((len(frames), fr.n), dtype=object)
        for row, f in zip(fr.G, frames):
            row[:] = f.G
        return fr

    # x^i and y^i as jets, lifted on first use: few frames read them (S and
    # the deformed coefficients read y^i), and frames stay cached
    xj = cached_property(lambda fr: jets.lift_point(fr.point.x + fr.point.y,
                                                    fr.order)[: fr.n])
    yj = cached_property(lambda fr: jets.lift_point(fr.point.x + fr.point.y,
                                                    fr.order)[fr.n:])

    @staticmethod
    def table(arr, k: int, lead: int = 0):
        """Values and all partials up to order k of a tensor of jets.

        Returns [values, first, second, ...] to order k, as float arrays with
        one trailing slot axis per order (one per jet variable: x slots, then
        y slots on a frame's jets): first[..., a] is the partial in slot a,
        second[..., a, b] the mixed one.  They are read off the normalized
        coefficients (partial = coefficient * alpha!) through the order-k
        prefix that jets of every order >= k share.  It needs no frame: the
        Finsler layer reads the partials of L = F^2 through it too.  Any
        object array of jets stacks; with `lead` point axes (a block's G:
        [point, i, ...]) each point's entries keep the layout of its own
        table, so an einsum over a block sums in the point's order.
        """
        arr = np.asarray(arr, dtype=object)
        if not 0 <= k <= min(j.order for j in arr.flat):
            raise ValueError(f"cannot read order-{k} partials from these jets")
        size, reads = _partial_reads(arr.flat[0].dim, k)
        coeffs = np.stack([j.coeffs[:size] for j in arr.flat])
        pts, idx = arr.shape[:lead], arr.shape[lead:]
        per = coeffs.reshape(math.prod(pts), -1, size).transpose(0, 2, 1)
        out = []
        for pos, fact in reads:
            t = np.take(per, pos, axis=1).reshape(pts + pos.shape + idx)
            s = t.ndim - len(idx)       # the index axes move before the slots
            out.append(t.transpose(*range(lead), *range(s, t.ndim),
                                   *range(lead, s)) * fact)
        return out

    def table_of(self, jet_of, k: int) -> list:
        """`table` of `jet_of(frame)`, stacked over a block's frames."""
        if not self.lead:
            return self.table(jet_of(self), k)
        jets_ = np.empty(len(self.frames), dtype=object)
        for i, f in enumerate(self.frames):
            jets_[i] = jet_of(f)
        return self.table(jets_, k, self.lead)

    def _depth(self, name: str, low: int = 3, deepest: int = 1) -> int:
        """Partial depth of a curvature table: 0 at order `low`, <= `deepest`."""
        if self.order < low:
            raise ValueError(f"{name} needs a frame of order >= {low}, not {self.order}")
        return min(deepest, self.order - low)

    def _slots(self, *slots) -> tuple:
        """The index that cuts the first slot axes of a table of G (`table`)
        to `slots`: they follow its point axis, if any, and its axis i."""
        return (slice(None),) * (self.lead + 1) + slots

    @cached_property
    def _gt(self) -> list:
        """The one table of G's partials, `table(G, order)` (`_g_partials`)."""
        return _frozen(self.table(self.G, self.order, self.lead))

    def _g_partials(self, depth: int, *slots) -> list:
        """The table [values, first, ...] to `depth` of the partials of G in
        `slots`: the orders len(slots) .. len(slots) + depth of `table(G, k)`,
        each with its first slot axes cut to `slots`.  They are the leading
        tables of the frame's one table of G, at its order (`_gt`): the bits
        of `table(G, k)`, whose ValueError a k past the order raises."""
        k = len(slots) + depth
        if k > self.order:
            raise ValueError(f"cannot read order-{k} partials from these jets")
        cut = self._slots(*slots)
        return [t[cut] for t in self._gt[len(slots):k + 1]]

    def hpart(self, T) -> list:
        """Horizontal derivative delta T/delta x^m = dT/dx^m - N^s_m dT/dy^s.

        T is a table [values, first, ...] (`table`) of any rank; the result
        is the table of delta T/delta x^m, one partial shorter, with m a
        trailing index axis before the slot axes.  Its partials come by the
        product rule on the table of the frame's N (`table(G, depth)`, depth
        that of T).
        """
        n, rank, depth = self.n, T[0].ndim - self.lead, len(T) - 1
        # the contiguous N_values (einsum's bits follow strides), then partials
        N = [self.N_values] + self._g_partials(depth - 1, slice(n, None))[1:]
        # the first slot axis of every partial follows the axes of the values
        x, y = ((slice(None),) * T[0].ndim + (s,)
                for s in (slice(None, n), slice(n, None)))
        idx = "abcdefgh"[:rank]
        NTy = _product(f"{idx}s,sm->{idx}m", [t[y] for t in T[1:]], N)
        return [t[x] - d for t, d in zip(T[1:], NTy)]

    def cov_h(self, T, roles) -> list:
        """Horizontal covariant derivative T_{|m} of a table T (`table`).

        `hpart` plus Gamma^i_sm T^{..s..} for each upper index and minus
        Gamma^s_jm T_{..s..} for each lower index, the partials by the product
        rule on the table of the frame's Gamma (`table(G, depth + 1)`).
        """
        y, depth = slice(self.n, None), len(T) - 1
        Gamma = [self.Gamma_values] + self._g_partials(depth - 1, y, y)[1:]
        out = self.hpart(T)
        idx = "abcdefgh"[: len(roles)]
        for axis, role in enumerate(roles):
            src = idx[:axis] + "s" + idx[axis + 1:]
            gam = idx[axis] + "sm" if role == "up" else "s" + idx[axis] + "m"
            terms = _product(f"{src},{gam}->{idx}m", T[:depth], Gamma)
            out = [o + t if role == "up" else o - t for o, t in zip(out, terms)]
        return out

    def rapcsak(self, L, a: float = 1.0) -> np.ndarray:
        """The covector a L_{.k|m} y^m - L_{|k} of a scalar L, as floats.

        `L` is the table [value, first, second] of L (`table(jet, 2)`, or
        `r_scalar` at order 4).  The vertical derivative is taken first and
        the horizontal covariant derivative of the resulting covector second,
        under the frame's own connection (see `cov_h`).  a = 1 gives the
        Rapcsak residual, a = 1/2 the dual-equivalence residual and eta
        (L = R).
        """
        y = slice(self.n, None)
        v, g, h = L
        Lvh = self.cov_h([_at(g, 0, y), _at(h, 1, y)], ("down",))[0]  # L_{.k|m}
        # a matrix product per point: the bits of Lvh @ y at each point
        return a * (Lvh @ self.y[..., None])[..., 0] - self.cov_h([v, g], ())[0]

    # -- connection and curvature fields ----------------------------------------

    @cached_property
    def G_values(self) -> np.ndarray:
        """The coefficients G^i as floats, the values of G's jets: those of
        a spray's own function hold the bits of its float evaluation
        (`SprayChart.coefficients`)."""
        return self._g_partials(0)[0]

    @cached_property
    def N_values(self) -> np.ndarray:
        """Nonlinear connection N^i_j = dG^i/dy^j as floats."""
        y = slice(self.n, None)
        return _frozen([self._g_partials(0, y)[0].copy()])[0]

    @cached_property
    def Gamma_values(self) -> np.ndarray:
        """Berwald connection Gamma^i_jk = d^2G^i/dy^j dy^k as floats."""
        y = slice(self.n, None)
        return _frozen([self._g_partials(0, y, y)[0].copy()])[0]

    @cached_property
    def y_table(self):
        """y^j as a table [values, first, second]: delta in its y slot."""
        n = self.n
        first = np.zeros(self.y.shape + (2 * n,))
        first[..., n:] = np.eye(n)
        return _frozen([self.y, first, np.zeros(first.shape + (2 * n,))])

    @cached_property
    def B(self):
        """Berwald curvature B^{ i}_{j kl} = d^3G^i/dy^j dy^k dy^l, stored [i,j,k,l]."""
        n, depth = self.n, self._depth("B")
        y = slice(n, None)
        return _frozen([t.copy() for t in self._g_partials(depth, y, y, y)])

    @cached_property
    def Pi(self):
        """The trace Pi = dG^m/dy^m (a 1-homogeneous scalar)."""
        return carrier_sum(self.G[m].d(self.n + m) for m in range(self.n))

    @cached_property
    def R2_table(self):
        """Two-index Riemann curvature by the standard spray formula,

        R^i_k = 2 dG^i/dx^k - y^j d^2G^i/dx^j dy^k
                + 2 G^j d^2G^i/dy^j dy^k - dG^i/dy^j dG^j/dy^k,

        with its partials to order <= 2, from `table(G, depth + 2)` by the
        product rule; the partial of the factor y^j is delta in its y slot.
        """
        n, depth = self.n, self._depth("R2", 2, 2)
        x, y = slice(None, n), slice(n, None)
        Gyy = self._g_partials(depth, y, y)     # the deepest first: one table of G
        Gy = self._g_partials(depth, y)
        terms = zip(self._g_partials(depth, x),
                    _product("j,ijk->ik", self.y_table, self._g_partials(depth, x, y)),
                    _product("j,ijk->ik", self._g_partials(depth), Gyy),
                    _product("ij,jk->ik", Gy, Gy))
        return _frozen([2.0 * dx - yH + 2.0 * GG - NN for dx, yH, GG, NN in terms])

    @lazy_table
    def R4(self, depth):
        """Four-index curvature of the Berwald connection, stored [i,j,k,l]:

        R^{ i}_{j kl} = delta Gamma^i_jl / delta x^k - delta Gamma^i_jk / delta x^l
                        + Gamma^i_ks Gamma^s_jl - Gamma^s_jk Gamma^i_ls

        from the table of Gamma (`table(G, depth + 3)`): its `hpart`, and the
        products by `_product`.  With
        A[i,j,k,l] = delta Gamma^i_jl / delta x^k + Gamma^i_ks Gamma^s_jl,
        R4 = A - (A with k, l swapped).
        """
        y = slice(self.n, None)
        Gm = self._g_partials(depth + 1, y, y)              # Gamma, partials
        hG = self.hpart(Gm)                                     # [i,j,l,m]
        GG = _product("iks,sjl->ijkl", Gm[:depth + 1], Gm)
        out = []
        for q, (h, gg) in enumerate(zip(hG, GG)):
            A = np.swapaxes(h, -2 - q, -1 - q) + gg
            out.append(A - np.swapaxes(A, -2 - q, -1 - q))
        return out

    @cached_property
    def ric(self):
        """Ricci scalar Ric = R^m_m with its partials: the trace of `R2_table`."""
        return _frozen([np.asarray(carrier_sum(_at(t, q, m, m) for m in range(self.n)))
                        for q, t in enumerate(self.R2_table)])

    @cached_property
    def r_scalar(self):
        """The scalar R = Ric/(n-1) with its partials."""
        return _frozen([np.asarray(t / float(self.n - 1)) for t in self.ric])

    @lazy_table
    def chi(self, depth):
        """chi_k = -(1/6) {dRic/dy^k + 2 dR^m_k/dy^m}, from `R2_table`."""
        n, out = self.n, []
        for q in range(depth + 1):
            d, ric = self.R2_table[q + 1], self.ric[q + 1]
            t = carrier_sum([_at(ric, q, slice(n, None))]
                            + [2.0 * _at(d, q, m, slice(None), n + m)
                               for m in range(n)])
            out.append(t / -6.0)
        return out

    @lazy_table
    def T(self, depth):
        """T^i_k = R^i_k - {R delta^i_k - (1/2) dR/dy^k y^i}, from `R2_table`."""
        y, R = slice(self.n, None), self.r_scalar
        out = plus_outer_y(self.R2_table[:depth + 1],
                           [_at(d, q, y) for q, d in enumerate(R[1:depth + 2])],
                           0.5, self.y_table)
        _minus_delta(out, R)
        return out

    @cached_property
    def ric_jl(self) -> np.ndarray:
        """Ricci tensor Ric_jl = (R^{ m}_{j ml} + R^{ m}_{l mj}) / 2, as floats."""
        ric = np.einsum("...mjml->...jl", self.R4[0])
        return _frozen([0.5 * (ric + np.swapaxes(ric, -1, -2))])[0]


# -- spray charts -----------------------------------------------------------------

class SprayChart:
    """A spray on a chart: dimension n, the coefficient function
    fn(xs, ys) -> [G^1, ..., G^n] over any carrier (floats or jets), and an
    explicit domain box.

    The coefficients are evaluated on jets once per (x, y), at the highest
    order asked there (`frame`), or once per block of points on block jets
    (`frames`), and on floats at each call (`coefficients`), for readers at
    points without a frame (homogeneity, set-up checks); a frame's values
    (`Frame.G_values`) hold the bits of the float evaluation.
    """

    def __init__(self, n: int, fn, domain: Box, label: str):
        if n < 2:
            raise ValueError("sprays need chart dimension n >= 2")
        self.n = n
        self._fn = fn
        self.domain = domain
        self.label = label
        self.metric = None      # the FinslerMetric of an induced spray
        self._frames = {}       # (x, y) -> the one frame kept there (`frame`)
        self._deformed = {}     # VolumeForm -> DeformedSpray (projective.deform)

    def eval_coefficients(self, xs, ys):
        """G^i at carrier arguments x = xs, y = ys."""
        return self._fn(xs, ys)

    def _make_coefficient_jets(self, frame: Frame) -> list:
        """G^i as jets at the frame's point, on the lift of (x, y) to its order."""
        return self._coefficient_jets(frame.point.x + frame.point.y, frame.order)

    def _coefficient_jets(self, xy, order: int) -> list:
        """G^i on the lift of `xy` to `order`: the (x, y) of one point, or
        [point, x + y] of a block, whose lift is to block jets."""
        lifted = jets.lift_point(xy, order)
        out = self.eval_coefficients(lifted[: self.n], lifted[self.n:])
        return [jets.as_jet(v, lifted[0]) for v in out]

    def coefficients(self, p: PointTM) -> np.ndarray:
        """G^i at p, evaluated on floats."""
        return np.array([carrier_value(v) for v in
                         self.eval_coefficients(list(p.x), list(p.y))])

    def frame(self, p: PointTM, order: int) -> Frame:
        """The one frame kept at p, of order at least `order`: the reader
        takes the leading tables it needs (see `Frame`).  A higher order than
        the kept one builds a frame at that order, which replaces it: asking
        for the top order first costs one evaluation."""
        key = (p.x, p.y)
        fr = self._frames.get(key)
        if fr is None or fr.order < order:
            if not self.domain.contains(p.x):
                raise ValueError(f"{self.label}: point x = {p.x} lies outside "
                                 f"the declared domain box")
            fr = self._frames[key] = Frame(self, p, order)
        return fr

    def frames(self, points: list, order: int):
        """The frames `frame(p, order)` at `points`, yielded in point order,
        the points without such a frame built as one block: their (x, y)
        lifted to block jets once, the coefficients evaluated on them once,
        and each point's frame made from its row of the block's G jets,
        which holds the bits of its own build.  A block is built where it
        pays (from BLOCK_BUILD_POINTS points) and for a spray that evaluates
        coefficients of its own (a deformed spray composes its base's
        frames).  A block build that fails, on a domain error at any point
        or on points that branch apart (`jets.BlockSplit`), keeps nothing:
        its points are then built one by one as the frames are taken, so the
        caller's work at a point comes before the next point's build, and
        the first error is the first point's, as on a run point by point."""
        todo = [p for p in points if (p.x, p.y) not in self._frames
                or self._frames[p.x, p.y].order < order]
        if (self._fn is not None and len(todo) >= BLOCK_BUILD_POINTS
                and all(self.domain.contains(p.x) for p in todo)):
            try:
                G = self._coefficient_jets([p.x + p.y for p in todo], order)
                built = [Frame(self, p, order, [g.row(i) for g in G])
                         for i, p in enumerate(todo)]
            except (ArithmeticError, ValueError, jets.BlockSplit):
                built = []
            for p, fr in zip(todo, built):
                self._frames[p.x, p.y] = fr
        for p in points:
            yield self.frame(p, order)

    def homogeneity_residual(self, p: PointTM) -> float:
        """Worst relative residual of G(x, s*y) = s^2 G(x, y), s in HOMOGENEITY_SCALES;
        a NaN coefficient makes it NaN (np.max, unlike max, keeps a NaN)."""
        base = self.coefficients(p)
        return float(np.max([rel_residual(self.coefficients(p.scaled(s))
                                          - s * s * base, base)
                             for s in HOMOGENEITY_SCALES]))

    def check_homogeneity(self, points):
        """Verify G(x, s*y) = s^2 G(x, y) to HOMOGENEITY_TOL at sample points;
        raise on failure, and at the first point where a coefficient is not finite."""
        worst = 0.0
        for p in points:
            res = self.homogeneity_residual(p)
            if not math.isfinite(res):
                raise ValueError(f"{self.label}: spray coefficients G(x, s y) are "
                                 f"not finite at x = {p.x}, y = {p.y}, s in "
                                 f"{(1.0, *HOMOGENEITY_SCALES)}")
            worst = max(worst, res)
        if worst > HOMOGENEITY_TOL:
            raise ValueError(
                f"{self.label}: 2-homogeneity violated (residual {worst:.2e})")
        return worst

    def __repr__(self):
        return f"SprayChart({self.label!r}, n={self.n})"


# -- public tensor operations -------------------------------------------------------

def nonlinear_connection(G: SprayChart, p: PointTM) -> np.ndarray:
    """N^i_j = dG^i/dy^j."""
    return G.frame(p, 1).N_values


def berwald_connection(G: SprayChart, p: PointTM) -> np.ndarray:
    """Gamma^i_jk = d^2 G^i/dy^j dy^k (symmetric in j, k)."""
    return G.frame(p, 2).Gamma_values


def berwald_curvature(G: SprayChart, p: PointTM) -> np.ndarray:
    """B^{ i}_{j kl}, totally symmetric in j, k, l with y^j B^{ i}_{j kl} = 0."""
    return G.frame(p, 3).B[0]


def riemann_two_index(G: SprayChart, p: PointTM) -> np.ndarray:
    """R^i_k by the direct spray formula, cross-asserted against y^j R4 y^l."""
    return riemann_values(G.frame(p, 3))


def riemann_values(fr: Frame) -> np.ndarray:
    """R^i_k of a frame or a block (`R2_table`), checked at every point
    against the contraction y^j R^{ i}_{j kl} y^l; the first point that
    disagrees raises CrossCheckError."""
    direct = fr.R2_table[0]
    contracted = np.einsum("...ijkl,...j,...l->...ik", fr.R4[0], fr.y, fr.y)
    res = np.ravel(rel_residual(direct - contracted, direct, contracted,
                                lead=fr.lead))
    bad = res[res > CROSS_CHECK_TOL]
    if bad.size:
        raise CrossCheckError(
            f"{fr.spray.label}: direct two-index curvature disagrees with the "
            f"four-index contraction (residual {bad[0]:.2e} > {CROSS_CHECK_TOL:.0e})")
    return direct


def riemann_four_index(G: SprayChart, p: PointTM) -> np.ndarray:
    """R^{ i}_{j kl} of the Berwald connection (antisymmetric in k, l)."""
    return G.frame(p, 3).R4[0]


# -- fields over the chart ----------------------------------------------------------

def horizontal_partial(f, G: SprayChart, p: PointTM, k: int) -> float:
    """delta f / delta x^k = df/dx^k - N^m_k df/dy^m for a scalar field given
    by a carrier function f(xs, ys), evaluated on the frame's coordinate jets."""
    fr = G.frame(p, 1)
    return float(fr.hpart(fr.table(jets.as_jet(f(fr.xj, fr.yj), fr.xj[0]), 1))[0][k])


def covariant_derivative_h(f, roles, G: SprayChart, p: PointTM) -> np.ndarray:
    """Horizontal covariant derivative of a rank <= 2 tensor field; appends a
    lower index.  f(xs, ys) gives the components (nested lists of carriers,
    one level per entry of `roles`, "up" or "down"), evaluated on the frame's
    coordinate jets."""
    fr = G.frame(p, 2)      # Gamma needs second partials of G
    comps = np.asarray(f(fr.xj, fr.yj), dtype=object)
    if comps.ndim != len(roles):
        raise ValueError("rank of components does not match roles")
    if comps.ndim > 2:
        raise ValueError("covariant_derivative_h supports rank <= 2 fields")
    lift = np.frompyfunc(lambda v: jets.as_jet(v, fr.xj[0]), 1, 1)
    return fr.cov_h(fr.table(lift(comps), 1), roles)[0]


# -- sampling protocol ----------------------------------------------------------------

def sample_points(spray: SprayChart, count: int, seed: int):
    """x uniform in the domain box shrunk by 10%, y uniform on the unit sphere.

    The draws are those of ``numpy.random.default_rng(seed)``, made without
    importing ``numpy.random`` (see `spraylab._rng`)."""
    from ._rng import Generator
    rng = Generator(seed)
    box = spray.domain.shrunk(0.10)
    pts = []
    for _ in range(count):
        x = box.sample(rng)
        while True:
            y = np.array([rng.standard_normal() for _ in range(spray.n)])
            nrm = float(np.linalg.norm(y))
            if nrm > 1e-8:
                break
        pts.append(PointTM(x, tuple(y / nrm)))
    return pts


BLOCK_BYTES = 1 << 18    # the deepest stacked table of one block (`point_blocks`)
# The fewest points that `SprayChart.frames` builds as one block.  A block
# op costs more than a per-point op, and the more so the larger the jets, so
# a block pays only when it stands for enough points.  Frame builds in µs
# per point, one by one -> as blocks of P (2 cores, numpy 2, CPython 3.11):
#
#   spray, order            P = 2        P = 4        P = 8        P = 16
#   sphere(n=2), 4       326 -> 357   301 -> 198   303 -> 117   292 -> 83
#   sphere(n=3), 4       538 -> 657   543 -> 414   549 -> 297   490 -> 217
#   sphere(n=4), 3       696 -> 856   711 -> 524   697 -> 363   672 -> 286
#   sphere(n=4), 4       903 -> 1491  909 -> 1011  913 -> 794   907 -> 643
#   EX72 (n=2), 4         91 -> 157    91 -> 94     90 -> 59     88 -> 46
#   RANDERS2, 4          772 -> 1279  777 -> 721  763 -> 460   774 -> 357
#   3-D DSL spray, 4     619 -> 1364  588 -> 853  586 -> 575   604 -> 461
#
# From 8 points on no case loses.  `point_blocks` cuts blocks of 2 for
# n = 4 at order 4 (so `verify` builds those frames one by one), of 8 for
# n = 3 and of 64 for n = 2.
BLOCK_BUILD_POINTS = 8


def point_blocks(points: list, n: int, order: int) -> list:
    """`points` cut into consecutive blocks for `Frame.block` at `order`.

    A block holds as many points as keep its deepest stacked table, the
    order-`order` partials of G (n (2n)^order floats per point), within
    BLOCK_BYTES: 8 points for n = 3 at order 4.  So the memory of a block
    does not grow with the point count, and its tables stay small enough to
    be read from cache.  Its frames are built as one block where that pays
    (BLOCK_BUILD_POINTS, `SprayChart.frames`)."""
    step = max(1, BLOCK_BYTES // (8 * n * (2 * n) ** order))
    return [points[i:i + step] for i in range(0, len(points), step)]


# -- the spray zoo ---------------------------------------------------------------------

def _parse_x_expr(src, n, what):
    ast = exprdsl.parse(src, n) if isinstance(src, str) else src
    if exprdsl.uses_y(ast):
        raise ValueError(f"{what} must depend on x variables only")
    return ast


def _normalize_metric(g: dict, n, letter: str = "g"):
    """Accept {(i, j): expr} with 1-based keys; symmetrize.  Errors name an
    entry by the family's `letter` (g_ij, or a_ij for randers)."""
    out = {}
    for (i, j), src in g.items():
        if not (i in range(1, n + 1) and j in range(1, n + 1)):
            raise ValueError(f"metric entry {letter}_{i}{j}: index outside 1..{n}")
        ast = _parse_x_expr(src, n, f"metric entry {letter}_{i}{j}")
        key = (min(i, j), max(i, j))
        if key in out and not exprdsl.ast_equal(out[key], ast):
            raise ValueError(f"metric entries {letter}_{i}{j} and "
                             f"{letter}_{j}{i} disagree")
        out[key] = ast
    zero = exprdsl.parse("0", n)
    full = [[out.get((min(i, j) + 1, max(i, j) + 1), zero) for j in range(n)]
            for i in range(n)]
    return full


def metric_draws(asts, n: int, box: Box, letter: str):
    """The metric of entries `asts` at the x of `box.check_sample()`: yields
    (x, evaluation memo, values) at each, after refusing one that is not
    positive definite (a ValueError naming the metric by `letter` and the
    point).  A singular value passes: its caller names it."""
    for x in box.check_sample():
        x = list(x) + [0.0] * n
        memo = {}
        v = np.array([[carrier_value(exprdsl.evaluate(asts[i][j], x, memo))
                       for j in range(n)] for i in range(n)])
        try:
            np.linalg.cholesky(v)
        except np.linalg.LinAlgError:
            if np.linalg.slogdet(v)[0] != 0.0:     # sign 0: singular
                raise ValueError(f"metric {letter}_ij is not positive definite "
                                 f"at x = {tuple(x[:n])}") from None
        yield x, memo, v


def _placed_rhs(dg, ly) -> list:
    """q_l = sum_{k,m} c_lkm y^k y^m, c_lkm = 2 dg_lk/dx^m - dg_mk/dx^l, as
    jets in 2n variables, from dg on the n-variable lift of x (jets, or
    floats where an entry is constant) and `ly`, the n-variable lift of y.

    The bits are those of the 2n products c_lkm * (y^k y^m), summed left to
    right in (k, m) order.  A product of an x-only and a y-only jet has one
    nonzero term per coefficient, c[alpha] Y[beta], which its bincount adds
    to +0.0 among zero terms (finite coefficients): so c[alpha] Y[beta] + 0.0
    is written straight into place (`jets._xy_split`).  Y on n variables has
    the bits of the 2n product y^k y^m at the y-only positions, for the
    reason `jets.x_only` gives, and that product is zero elsewhere.  A float
    c scales all of Y (`Jet.__mul__`).  c is exact at the x-only positions;
    the sign of a zero there does not matter.  On block jets every array
    gains a trailing point axis (coefficients transposed, [pos, point]), and
    each point takes the same steps.
    """
    n, small = len(ly), ly[0].space
    points = ly[0].coeffs.shape[:-1]        # () or (points,)
    ix, iy = jets._xy_split(n, small.order)
    space = jets.jet_space(2 * n, small.order)
    # y^k y^m is zero above degree 2: the product of order-2 prefixes, padded
    low = min(small.order, 2)
    Y = np.zeros((n, n, small.size) + points)
    for k in range(n):
        for m in range(k, n):
            c = (ly[k].truncated(low) * ly[m].truncated(low)).coeffs.T
            Y[k, m, :len(c)] = Y[m, k, :len(c)] = c
    Y = Y[:, :, iy]                         # y^k y^m at each 2n position
    pure = ix == 0                          # the y-only positions
    Y2n = np.zeros_like(Y)                  # the 2n product y^k y^m
    Y2n[:, :, pure] = Y[:, :, pure]
    D = np.zeros((n, n, n, small.size) + points)     # dg_ij/dx^k at [i, j, k]
    for i, j, k in itertools.product(range(n), repeat=3):
        v = dg[i][j][k]
        if isinstance(v, Jet):
            D[i, j, k] = v.coeffs.T
        else:
            D[i, j, k, 0] = v
    C = 2.0 * D - np.swapaxes(D, 0, 2)      # c_lkm at [l, k, m]
    q = []
    for l in range(n):      # one l at a time: no large temporary (peak RSS)
        P = C[l][:, :, ix] * Y + 0.0
        for k, m in itertools.product(range(n), repeat=2):
            if not (isinstance(dg[l][k][m], Jet) or isinstance(dg[m][k][l], Jet)):
                P[k, m] = Y2n[k, m] * C[l, k, m, 0]
        P = P.reshape((n * n,) + P.shape[2:])
        # sum the n^2 rows left to right, as the product loop: P.sum(axis=0) moves bits
        acc = P[0]
        for row in P[1:]:
            acc = acc + row
        q.append(Jet(space, np.ascontiguousarray(acc.T)))
    return q


def metric_spray_fn(g_asts, n):
    """Carrier-generic geodesic coefficients of a Riemannian metric g(x).

    G^i = (1/4) g^{il} (2 dg_lk/dx^m - dg_mk/dx^l) y^k y^m, evaluated through
    symbolic x-derivatives of the metric entries and a generic linear solve.
    On the coordinate jets of a lift, g, its factors and its x-derivatives
    run on x-only jets (`jets.small_lift`), the right-hand side is placed
    (`_placed_rhs`) and only its solve takes the y variables.  Floats and
    other carriers take the same steps as products of carriers.

    The factors and dg depend on x alone, and the suite asks for them at one
    x many times (frames at (x, s y), deformed and shifted sprays, float
    coefficients).  So they are built once per x: on x-only jets at the
    highest order asked there, a lower order reading prefix slices of them
    (`Jet.truncated`, the bits of a fresh evaluation), and once per x on
    floats.  A block of points (`SprayChart.frames`) runs the same steps on
    block jets, once per block.
    """
    memos = [{} for _ in range(n)]      # one per slot: equal entries share dg
    dg = [[[exprdsl.differentiate(g_asts[i][j], k, memos[k]) for k in range(n)]
           for j in range(n)] for i in range(n)]
    kept = {}       # (x, on floats) -> (order, metric(x)) at the top order asked

    def metric(xs):
        """The factors of g_ij (`factor_carrier`) and dg_ij/dx^k at x."""
        memo = {}
        g = [[exprdsl.evaluate(g_asts[i][j], xs, memo) for j in range(n)]
             for i in range(n)]
        dgv = [[[exprdsl.evaluate(dg[i][j][k], xs, memo) for k in range(n)]
                for j in range(n)] for i in range(n)]
        try:
            return factor_carrier(g), dgv
        except JetDomainError:
            x = tuple(carrier_value(v) for v in xs)
            raise JetDomainError(f"metric g_ij is singular at x = {x}") from None

    def metric_at(xs):
        """`metric(xs)` once per x, on the x-only lift or on floats (see above).
        A block lift is evaluated once, and each point's row is kept at its
        x for the frames built there later one by one."""
        x, order = tuple(map(carrier_value, xs)), getattr(xs[0], "order", -1)
        if np.ndim(x[0]):
            out = metric(xs)
            for i, xi in enumerate(zip(*(v.tolist() for v in x))):
                top = kept.get((xi, False))
                if top is None or top[0] < order:
                    kept[xi, False] = (order, jets.map_jets(lambda j: j.row(i), out))
            return out
        top = kept.get((x, order < 0))
        if top is None or top[0] < order:
            top = kept[x, order < 0] = (order, metric(xs))
        return top[1] if top[0] == order else jets.map_jets(
            lambda j: j.truncated(order), top[1])

    def fn(xs, ys):
        lx, ly = jets.small_lift(xs), jets.small_lift(ys, n)
        if (lx is not None and ly is not None and xs[0].space is ys[0].space
                and xs[0].dim == 2 * n):
            steps, dgv = metric_at(lx)
            steps, q = jets.embed(steps, 2 * n), _placed_rhs(dgv, ly)
        else:
            floats = all(type(v) is float for v in xs)
            steps, dgv = metric_at(xs) if floats else metric(xs)
            # y^m y^k has the bits of y^k y^m (at most two terms per coefficient)
            yy = {(k, m): ys[k] * ys[m] for k in range(n) for m in range(k, n)}
            q = [carrier_sum((2.0 * dgv[l][k][m] - dgv[m][k][l])
                             * yy[min(k, m), max(k, m)]
                             for k in range(n) for m in range(n))
                 for l in range(n)]
        (sol,) = solve_factored(steps, [q])
        return [0.25 * v for v in sol]

    return fn


def make_flat(n: int = 2, box: float = 1.0) -> SprayChart:
    return SprayChart(n, lambda xs, ys: [0.0] * n, Box.cube(n, box), "flat")


def make_riemannian(g, n: int, box: float = 1.0, label: str = "riemannian"):
    """The geodesic spray of g, refused where g is indefinite (`metric_draws`);
    a singular g is a domain error where the spray is evaluated."""
    g_asts, domain = _normalize_metric(g, n), Box.cube(n, box)
    for _ in metric_draws(g_asts, n, domain, "g"):
        pass
    return SprayChart(n, metric_spray_fn(g_asts, n), domain, label)


def make_sphere(n: int = 3, kappa: float = 1.0) -> SprayChart:
    """Constant-curvature metric 4 delta_ij / (1 + kappa |x|^2)^2 on one chart."""
    r2 = " + ".join(f"x{i}^2" for i in range(1, n + 1))
    entry = f"4 / (1 + {kappa!r}*({r2}))^2"
    g = {(i, i): entry for i in range(1, n + 1)}
    half = 0.999 / math.sqrt(max(abs(kappa), 1.0)) / math.sqrt(n)
    return make_riemannian(g, n, box=half, label=f"sphere(n={n},kappa={kappa:g})")


def make_example72(A="0", B="0", C="0", D="0", f="0", box: float = 1.0):
    """The 2-dimensional polynomial family with quadratic-in-y coefficients."""
    n = 2
    asts = {k: _parse_x_expr(src, n, k) for k, src in
            dict(A=A, B=B, C=C, D=D, f=f).items()}
    f1 = exprdsl.differentiate(asts["f"], 0)
    f2 = exprdsl.differentiate(asts["f"], 1)

    def fn(xs, ys):
        env = list(xs) + list(ys)
        memo = {}
        a, b, c, d = (exprdsl.evaluate(asts[k], env, memo) for k in "ABCD")
        v1, v2 = (exprdsl.evaluate(e, env, memo) for e in (f1, f2))
        y1, y2 = ys
        y11, y12, y22 = y1 * y1, y1 * y2, y2 * y2
        g1 = b * y11 + 2.0 * (c * y12) + d * y22 + (v1 * y11 + v2 * y12) / 3.0
        g2 = (-(a * y11) - 2.0 * (b * y12) - c * y22
              + (v1 * y12 + v2 * y22) / 3.0)
        return [g1, g2]

    return SprayChart(n, fn, Box.cube(n, box), "example72")


def make_custom(file=None, doc=None, label: str = ""):
    """The spray of a spray-definition document (`exprdsl.SprayFileDoc`, or
    read from `file`): its G1..Gn expressions, evaluated with one memo, or
    the induced spray of its Randers metric block."""
    label = label or (f"custom(file={file})" if file is not None else "custom")
    if doc is None:
        if file is None:
            raise ValueError("custom needs a spray-definition file: "
                             "custom(file=PATH)")
        doc = exprdsl.load_spray_file(file)
    if doc.metric is not None:
        return make_randers(doc.metric, doc.one_form or {}, doc.dim, box=doc.box)
    coeffs = doc.coeffs
    return SprayChart(doc.dim, lambda xs, ys: exprdsl.evaluate_many(
        coeffs, list(xs) + list(ys)), Box.cube(doc.dim, doc.box), label)


def make_randers(a, b, n: int, box: float = 1.0) -> SprayChart:
    from . import finsler
    rd = finsler.RandersData(a, b, n, box=box)
    return finsler.induced_spray(rd.metric())


FAMILIES = {   # name -> (builder, description, parameters for `spraylab list`)
    "flat": (make_flat, "zero coefficients", "n (default 2), box"),
    "riemannian": (make_riemannian, "geodesic spray of a metric g_ij(x)",
                   "g entries gIJ, n, box"),
    "sphere": (make_sphere, "constant-curvature metric on one chart",
               "n (default 3), kappa"),
    "example72": (make_example72, "2D family quadratic in y",
                  "A, B, C, D, f expressions, box"),
    "randers": (make_randers, "induced spray of a Randers norm",
                "a entries aIJ, b entries bI, n, box"),
    "custom": (make_custom, "spray-definition file", "file path"),
}


def make_family(name: str, **params) -> SprayChart:
    """Construct a zoo spray by family name from `FAMILIES` and validate its
    2-homogeneity.  An unknown family, or parameters its builder does not
    take or misses, raise ValueError naming the family and, for parameters,
    what `spraylab list` says the family takes."""
    if name not in FAMILIES:
        raise ValueError(f"unknown spray family {name!r}; "
                         f"known: {', '.join(sorted(FAMILIES))}")
    builder, _, accepted = FAMILIES[name]
    try:
        inspect.signature(builder).bind(**params)
    except TypeError as e:
        raise ValueError(f"family {name!r}: {e} (parameters: {accepted})") from None
    spray = builder(**params)
    spray.check_homogeneity(sample_points(spray, 5, seed=20180704))
    return spray
