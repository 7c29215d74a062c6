"""Sprays on a coordinate chart: Berwald connection, curvature tensors, zoo.

A spray is given by n coefficient functions G^i(x, y), positively
2-homogeneous in y, evaluated over any arithmetic carrier (floats or jets).
All tensor work happens in a :class:`Frame`: the jets of G^i at one point,
from which connection coefficients, curvature tensors and their horizontal /
vertical derivatives follow by exact jet arithmetic.  Index convention for
stored components: the upper index comes first, so ``R4[i, j, k, l]`` holds
the curvature slot with upper i and lower j, k, l (antisymmetric in k, l).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import exprdsl, jets
from .jets import Jet, JetDomainError

EPS_Y = 1e-6


class CrossCheckError(AssertionError):
    """Two independent computations of the same tensor disagreed."""


# -- geometry of the chart -----------------------------------------------------

@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple

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


@dataclass(frozen=True)
class PointTM:
    """A chart point (x; y) with y bounded away from the zero section."""
    x: tuple
    y: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        if math.sqrt(sum(v * v for v in self.y)) < EPS_Y:
            raise ValueError(f"|y| below {EPS_Y}; tensors are undefined at y = 0")

    @property
    def n(self) -> int:
        return len(self.x)

    def scaled(self, s: float) -> "PointTM":
        """The point (x; s y) on the same fibre."""
        return PointTM(self.x, tuple(s * v for v in self.y))


@dataclass
class TensorValue:
    """Dense real components of a tensor at a point, with index metadata."""
    components: np.ndarray
    roles: tuple            # "up" / "down" per axis
    names: tuple            # index letters, e.g. ("i", "j", "k", "l")
    point: PointTM
    label: str = ""

    @property
    def rank(self) -> int:
        return self.components.ndim

    def __repr__(self):
        return (f"TensorValue({self.label!r}, rank={self.rank}, "
                f"max|.|={np.abs(self.components).max():.3e})")


def rel_residual(diff, *refs) -> float:
    """Residual scaled by 1 + the largest component entering the identity."""
    scale = 1.0
    for r in refs:
        r = np.asarray(r, dtype=float)
        if r.size:
            scale = max(scale, 1.0 + float(np.abs(r).max()))
    return float(np.abs(np.asarray(diff, dtype=float)).max() / scale)


# -- generic linear algebra over carriers ---------------------------------------

def carrier_value(c) -> float:
    return c.value if isinstance(c, Jet) else float(c)


def carrier_sum(terms):
    """Left-to-right sum ((t0 + t1) + t2) + ... of carriers (floats or jets)."""
    return reduce(operator.add, terms)


def solve_carrier(A, B):
    """Solve A X = B by Gaussian elimination with partial pivoting.

    A is an n*n nested list of carriers, B a list of right-hand sides (each a
    list of n carriers).  Pivots are chosen by the magnitude of the carrier
    value.  Returns the list of solution vectors.
    """
    n = len(A)
    a = [row[:] for row in A]
    bs = [col[:] for col in B]
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(carrier_value(a[r][k])))
        if abs(carrier_value(a[piv][k])) == 0.0:
            raise JetDomainError("degenerate linear system (zero pivot)")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for col in bs:
                col[k], col[piv] = col[piv], col[k]
        inv = jets.divide(1.0, a[k][k])
        for r in range(k + 1, n):
            f = a[r][k] * inv
            for c in range(k + 1, n):
                a[r][c] = a[r][c] - f * a[k][c]
            for col in bs:
                col[r] = col[r] - f * col[k]
    out = []
    for col in bs:
        x = [None] * n
        for k in range(n - 1, -1, -1):
            acc = col[k]
            for c in range(k + 1, n):
                acc = acc - a[k][c] * x[c]
            x[k] = jets.divide(acc, a[k][k])
        out.append(x)
    return out


def invert_carrier(A):
    """Inverse of an n*n carrier matrix via the generic linear solve."""
    n = len(A)
    eye = [[1.0 if i == j else 0.0 for i in range(n)] for j in range(n)]
    cols = solve_carrier(A, eye)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _obj(shape):
    return np.empty(shape, dtype=object)


def tensor_values(arr) -> np.ndarray:
    """Extract the point values from a tensor of jets."""
    arr = np.asarray(arr, dtype=object)
    out = np.empty(arr.shape, dtype=float)
    for idx in np.ndindex(arr.shape):
        out[idx] = carrier_value(arr[idx])
    return out


# -- the jet workshop ------------------------------------------------------------

class Frame:
    """Jets of one spray at one point, and the derived tensor fields.

    The frame's order bounds how many derivatives remain available: every
    vertical (.d on a y slot) or horizontal derivative consumes one order.
    Tensors are cached lazily; all arithmetic is exact jet arithmetic.
    """

    def __init__(self, spray: "SprayChart", point: PointTM, order: int):
        self.spray = spray
        self.point = point
        self.order = order
        self.n = spray.n
        coords = point.x + point.y
        lifted = jets.lift_point(coords, order)
        self.xj = lifted[: self.n]
        self.yj = lifted[self.n:]
        self.G = spray._make_coefficient_jets(self, lifted)

    # derivative operators on scalar jets
    def dx(self, j: Jet, k: int) -> Jet:
        return j.d(k)

    def dy(self, j: Jet, k: int) -> Jet:
        return j.d(self.n + k)

    def hpart(self, j: Jet, k: int) -> Jet:
        """Horizontal derivative delta/delta x^k = d/dx^k - N^m_k d/dy^m."""
        N = self.N
        out = self.dx(j, k)
        for m in range(self.n):
            out = out - N[m, k] * self.dy(j, m)
        return out

    def cov_h(self, arr, roles, k: int):
        """Horizontal covariant derivative of a tensor of jets in direction k.

        Scalars get the plain horizontal derivative; each upper index adds a
        +T^{..s..} Gamma^i_{sk} correction and each lower index subtracts
        T_{..s..} Gamma^s_{jk}.
        """
        if isinstance(arr, Jet):
            return self.hpart(arr, k)
        arr = np.asarray(arr, dtype=object)
        Gm = self.Gamma
        out = _obj(arr.shape)
        for idx in np.ndindex(arr.shape):
            t = self.hpart(arr[idx], k)
            for axis, role in enumerate(roles):
                a = idx[axis]
                for s in range(self.n):
                    jdx = idx[:axis] + (s,) + idx[axis + 1:]
                    if role == "up":
                        t = t + Gm[a, s, k] * arr[jdx]
                    else:
                        t = t - Gm[s, a, k] * arr[jdx]
            out[idx] = t
        return out

    def rapcsak(self, L: Jet, a: float = 1.0):
        """The covector a L_{.k|m} y^m - L_{|k} of a scalar jet L, as jets.

        The vertical derivative is taken first and the horizontal covariant
        derivative of the resulting covector second.  a = 1 gives the Rapcsak
        residual, a = 1/2 the dual-equivalence residual and eta (L = R).
        """
        n = self.n
        Lv = _obj((n,))
        for k in range(n):
            Lv[k] = self.dy(L, k)
        dLv = [self.cov_h(Lv, ("down",), m) for m in range(n)]
        out = _obj((n,))
        for k in range(n):
            acc = carrier_sum(dLv[m][k] * self.yj[m] for m in range(n))
            out[k] = a * acc - self.hpart(L, k)
        return out

    # -- connection and curvature fields ----------------------------------------

    @cached_property
    def N(self):
        """Nonlinear connection N^i_j = dG^i/dy^j."""
        n = self.n
        out = _obj((n, n))
        for i, j in itertools.product(range(n), repeat=2):
            out[i, j] = self.dy(self.G[i], j)
        return out

    @cached_property
    def Gamma(self):
        """Berwald connection Gamma^i_jk = d^2 G^i / dy^j dy^k."""
        n = self.n
        out = _obj((n, n, n))
        for i, j in itertools.product(range(n), repeat=2):
            for k in range(j, n):
                d = self.dy(self.N[i, j], k)
                out[i, j, k] = d
                out[i, k, j] = d
        return out

    @cached_property
    def B(self):
        """Berwald curvature B^{ i}_{j kl} = dGamma^i_kl/dy^j, stored [i,j,k,l]."""
        n = self.n
        out = _obj((n, n, n, n))
        for i, j, k, l in itertools.product(range(n), repeat=4):
            out[i, j, k, l] = self.dy(self.Gamma[i, k, l], j)
        return out

    @cached_property
    def Pi(self):
        """The trace Pi = dG^m/dy^m (a 1-homogeneous scalar)."""
        return carrier_sum(self.N[m, m] for m in range(self.n))

    @cached_property
    def R2(self):
        """Two-index Riemann curvature by the standard spray formula:

        R^i_k = 2 dG^i/dx^k - y^j d^2G^i/dx^j dy^k
                + 2 G^j d^2G^i/dy^j dy^k - dG^i/dy^j dG^j/dy^k
        """
        n, G, yj = self.n, self.G, self.yj
        dxG = [[self.dx(G[i], j) for j in range(n)] for i in range(n)]
        out = _obj((n, n))
        for i, k in itertools.product(range(n), repeat=2):
            t = 2.0 * dxG[i][k]
            for j in range(n):
                t = t - yj[j] * self.dy(dxG[i][j], k)
                t = t + 2.0 * (G[j] * self.N[i, j].d(self.n + k))
                t = t - self.N[i, j] * self.N[j, k]
            out[i, k] = t
        return out

    @cached_property
    def R4(self):
        """Four-index curvature of the Berwald connection, stored [i,j,k,l]:

        R^{ i}_{j kl} = delta Gamma^i_jl / delta x^k - delta Gamma^i_jk / delta x^l
                        + Gamma^i_ks Gamma^s_jl - Gamma^s_jk Gamma^i_ls
        """
        n, Gm = self.n, self.Gamma
        hG = _obj((n, n, n, n))  # hG[i,j,l,k] = delta Gamma^i_jl / delta x^k
        for i, j in itertools.product(range(n), repeat=2):
            for l in range(j, n):
                for k in range(n):
                    d = self.hpart(Gm[i, j, l], k)
                    hG[i, j, l, k] = d
                    hG[i, l, j, k] = d
        out = _obj((n, n, n, n))
        for i, j in itertools.product(range(n), repeat=2):
            for k in range(n):
                out[i, j, k, k] = Gm[0, 0, 0] * 0.0
                for l in range(k + 1, n):
                    t = hG[i, j, l, k] - hG[i, j, k, l]
                    for s in range(n):
                        t = (t + Gm[i, k, s] * Gm[s, j, l]
                             - Gm[s, j, k] * Gm[i, l, s])
                    out[i, j, k, l] = t
                    out[i, j, l, k] = -t
        return out

    @cached_property
    def ric(self):
        """Ricci scalar Ric = R^m_m (contracting the two-index curvature)."""
        return carrier_sum(self.R2[m, m] for m in range(self.n))

    @cached_property
    def r_scalar(self):
        """The scalar R = Ric/(n-1)."""
        return self.ric / float(self.n - 1)

    @cached_property
    def ric_jl(self):
        """Ricci tensor Ric_jl = (R^{ m}_{j ml} + R^{ m}_{l mj}) / 2."""
        n, R4 = self.n, self.R4
        out = _obj((n, n))
        for j in range(n):
            for l in range(j, n):
                t = R4[0, j, 0, l] + R4[0, l, 0, j]
                for m in range(1, n):
                    t = t + R4[m, j, m, l] + R4[m, l, m, j]
                t = 0.5 * t
                out[j, l] = t
                out[l, j] = t
        return out

    def contract_y(self, arr, axis: int):
        """Contract one lower axis of a tensor of jets with y."""
        arr = np.asarray(arr, dtype=object)
        moved = np.moveaxis(arr, axis, -1)
        out = _obj(moved.shape[:-1])
        for idx in np.ndindex(moved.shape[:-1]):
            out[idx] = carrier_sum(moved[idx + (m,)] * self.yj[m]
                                   for m in range(self.n))
        return out if out.shape else out[()]


# -- spray charts -----------------------------------------------------------------

class SprayChart:
    """Dimension n plus n coefficient functions over an explicit domain box."""

    def __init__(self, n: int, domain: Box, label: str):
        if n < 2:
            raise ValueError("sprays need chart dimension n >= 2")
        self.n = n
        self.domain = domain
        self.label = label
        self.metric = None      # the FinslerMetric of an induced spray
        self._frames = {}

    # subclasses provide carrier-generic evaluation
    def eval_coefficients(self, xs, ys):
        raise NotImplementedError

    def _make_coefficient_jets(self, frame: Frame, lifted):
        out = self.eval_coefficients(lifted[: self.n], lifted[self.n:])
        return [jets.as_jet(v, lifted[0]) for v in out]

    def coefficients(self, p: PointTM) -> np.ndarray:
        return np.array([carrier_value(v)
                         for v in self.eval_coefficients(list(p.x), list(p.y))])

    def frame(self, p: PointTM, order: int) -> Frame:
        key = (p.x, p.y, order)
        fr = self._frames.get(key)
        if fr is None:
            if not self.domain.contains(p.x):
                raise ValueError(f"{self.label}: point x = {p.x} lies outside "
                                 f"the declared domain box")
            fr = Frame(self, p, order)
            self._frames[key] = fr
        return fr

    def homogeneity_residual(self, p: PointTM, lambdas=(0.5, 2.0, 3.0)) -> float:
        """Worst relative residual of G(x, s*y) = s^2 G(x, y) over `lambdas`."""
        base = self.coefficients(p)
        worst = 0.0
        for s in lambdas:
            scaled = self.coefficients(p.scaled(s))
            worst = max(worst, rel_residual(scaled - s * s * base, base))
        return worst

    def check_homogeneity(self, points, lambdas=(0.5, 2.0, 3.0), tol=1e-9):
        """Verify G(x, s*y) = s^2 G(x, y) at sample points; raise on failure."""
        worst = 0.0
        for p in points:
            worst = max(worst, self.homogeneity_residual(p, lambdas))
        if worst > tol:
            raise ValueError(
                f"{self.label}: 2-homogeneity violated (residual {worst:.2e})")
        return worst

    def __repr__(self):
        return f"SprayChart({self.label!r}, n={self.n})"


class FunctionSpray(SprayChart):
    def __init__(self, n, fn, domain, label):
        super().__init__(n, domain, label)
        self._fn = fn

    def eval_coefficients(self, xs, ys):
        return self._fn(xs, ys)


class ExpressionSpray(SprayChart):
    def __init__(self, n, coeff_asts, domain, label):
        super().__init__(n, domain, label)
        self.coeff_asts = list(coeff_asts)

    def eval_coefficients(self, xs, ys):
        return exprdsl.evaluate_many(self.coeff_asts, list(xs) + list(ys))


# -- public tensor operations -------------------------------------------------------

def nonlinear_connection(G: SprayChart, p: PointTM) -> TensorValue:
    """N^i_j = dG^i/dy^j."""
    fr = G.frame(p, 1)
    return TensorValue(tensor_values(fr.N), ("up", "down"), ("i", "j"), p, "N")


def berwald_connection(G: SprayChart, p: PointTM) -> TensorValue:
    """Gamma^i_jk = d^2 G^i/dy^j dy^k (symmetric in j, k)."""
    fr = G.frame(p, 2)
    return TensorValue(tensor_values(fr.Gamma), ("up", "down", "down"),
                       ("i", "j", "k"), p, "Gamma")


def berwald_curvature(G: SprayChart, p: PointTM) -> TensorValue:
    """B^{ i}_{j kl}, totally symmetric in j, k, l with y^j B^{ i}_{j kl} = 0."""
    fr = G.frame(p, 3)
    return TensorValue(tensor_values(fr.B), ("up", "down", "down", "down"),
                       ("i", "j", "k", "l"), p, "B")


def riemann_two_index(G: SprayChart, p: PointTM, cross_check: bool = True,
                      tol: float = 1e-8) -> TensorValue:
    """R^i_k by the direct spray formula, cross-asserted against y^j R4 y^l."""
    if not cross_check:
        fr = G.frame(p, 2)
        return TensorValue(tensor_values(fr.R2), ("up", "down"), ("i", "k"), p, "R")
    fr = G.frame(p, 3)
    direct = tensor_values(fr.R2)
    contracted = tensor_values(fr.contract_y(fr.contract_y(fr.R4, 3), 1))
    res = rel_residual(direct - contracted, direct, contracted)
    if res > tol:
        raise CrossCheckError(
            f"{G.label}: direct two-index curvature disagrees with the "
            f"four-index contraction (residual {res:.2e} > {tol:.0e})")
    return TensorValue(direct, ("up", "down"), ("i", "k"), p, "R")


def riemann_four_index(G: SprayChart, p: PointTM) -> TensorValue:
    """R^{ i}_{j kl} of the Berwald connection (antisymmetric in k, l)."""
    fr = G.frame(p, 3)
    return TensorValue(tensor_values(fr.R4), ("up", "down", "down", "down"),
                       ("i", "j", "k", "l"), p, "R4")


# -- scalar / tensor fields over the chart -------------------------------------------

class ScalarField:
    """A scalar function of (x, y) usable in jet computations.

    Wraps either a DSL expression or a callable ``fn(xs, ys) -> carrier``.
    """

    def __init__(self, source, n: int, label: str = ""):
        self.n = n
        self.label = label
        if isinstance(source, str):
            source = exprdsl.parse(source, n)
        self.ast = source if not callable(source) else None
        self.fn = source if callable(source) else None

    def carrier(self, xs, ys):
        if self.fn is not None:
            return self.fn(xs, ys)
        return exprdsl.evaluate(self.ast, list(xs) + list(ys))

    def jet(self, frame: Frame) -> Jet:
        v = self.carrier(frame.xj, frame.yj)
        return jets.as_jet(v, frame.xj[0])


class TensorField:
    """A rank <= 2 tensor field given componentwise by scalar fields."""

    def __init__(self, components, roles, n: int, label: str = ""):
        comps = np.asarray(components, dtype=object)
        if comps.ndim != len(roles):
            raise ValueError("rank of components does not match roles")
        if comps.ndim > 2:
            raise ValueError("covariant_derivative_h supports rank <= 2 fields")
        self.components = comps
        self.roles = tuple(roles)
        self.n = n
        self.label = label

    def jets(self, frame: Frame):
        if self.components.ndim == 0:
            f = self.components[()]
            f = f if isinstance(f, ScalarField) else ScalarField(f, self.n)
            return f.jet(frame)
        out = _obj(self.components.shape)
        for idx in np.ndindex(self.components.shape):
            f = self.components[idx]
            f = f if isinstance(f, ScalarField) else ScalarField(f, self.n)
            out[idx] = f.jet(frame)
        return out


def horizontal_partial(field, G: SprayChart, p: PointTM, k: int,
                       order: int = 2) -> float:
    """delta f / delta x^k = df/dx^k - N^m_k df/dy^m for a scalar field."""
    if not isinstance(field, ScalarField):
        field = ScalarField(field, G.n)
    fr = G.frame(p, order)
    return carrier_value(fr.hpart(field.jet(fr), k))


def covariant_derivative_h(field: TensorField, G: SprayChart, p: PointTM,
                           order: int = 3) -> TensorValue:
    """Horizontal covariant derivative of a rank <= 2 field; appends a lower index."""
    fr = G.frame(p, order)
    tj = field.jets(fr)
    n = G.n
    if isinstance(tj, Jet):
        comps = np.array([carrier_value(fr.hpart(tj, k)) for k in range(n)])
        return TensorValue(comps, ("down",), ("k",), p, f"{field.label}|")
    shape = tj.shape + (n,)
    comps = np.empty(shape, dtype=float)
    for k in range(n):
        dk = fr.cov_h(tj, field.roles, k)
        for idx in np.ndindex(tj.shape):
            comps[idx + (k,)] = carrier_value(dk[idx])
    return TensorValue(comps, field.roles + ("down",),
                       tuple("abcd"[: len(field.roles)]) + ("k",), p,
                       f"{field.label}|")


# -- sampling protocol ----------------------------------------------------------------

def sample_points(spray: SprayChart, count: int, seed: int,
                  shrink: float = 0.10):
    """x uniform in the domain box shrunk by 10%, y uniform on the unit sphere."""
    rng = np.random.default_rng(seed)
    box = spray.domain.shrunk(shrink)
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


# -- the spray zoo ---------------------------------------------------------------------

def _parse_x_expr(src, n, what):
    ast = exprdsl.parse(src, n) if isinstance(src, str) else src
    if exprdsl.uses_y(ast):
        raise ValueError(f"{what} must depend on x variables only")
    return ast


def _normalize_metric(g, n):
    """Accept {(i, j): expr} with 1-based keys or a nested list; symmetrize."""
    out = {}
    if isinstance(g, dict):
        items = g.items()
    else:
        items = (((i + 1, j + 1), g[i][j]) for i in range(n) for j in range(n))
    for (i, j), src in items:
        ast = _parse_x_expr(src, n, f"metric entry a_{i}{j}")
        key = (min(i, j), max(i, j))
        if key in out and not exprdsl.ast_equal(out[key], ast):
            raise ValueError(f"metric entries a_{i}{j} and a_{j}{i} disagree")
        out[key] = ast
    zero = exprdsl.parse("0", n)
    full = [[out.get((min(i, j) + 1, max(i, j) + 1), zero) for j in range(n)]
            for i in range(n)]
    return full


def metric_spray_fn(g_asts, n):
    """Carrier-generic geodesic coefficients of a Riemannian metric g(x).

    G^i = (1/4) g^{il} (2 dg_lk/dx^m - dg_mk/dx^l) y^k y^m, evaluated through
    symbolic x-derivatives of the metric entries and a generic linear solve.
    """
    dg = [[[exprdsl.differentiate(g_asts[i][j], k) for k in range(n)]
           for j in range(n)] for i in range(n)]

    def fn(xs, ys):
        env = list(xs) + list(ys)
        memo = {}
        g = [[exprdsl.evaluate(g_asts[i][j], env, memo) for j in range(n)]
             for i in range(n)]
        dgv = [[[exprdsl.evaluate(dg[i][j][k], env, memo) for k in range(n)]
                for j in range(n)] for i in range(n)]
        yy = [[ys[k] * ys[m] for m in range(n)] for k in range(n)]
        q = [carrier_sum((2.0 * dgv[l][k][m] - dgv[m][k][l]) * yy[k][m]
                         for k in range(n) for m in range(n))
             for l in range(n)]
        (sol,) = solve_carrier(g, [q])
        return [0.25 * v for v in sol]

    return fn


def make_flat(n: int = 2, box: float = 1.0) -> SprayChart:
    return FunctionSpray(n, lambda xs, ys: [0.0] * n, Box.cube(n, box), "flat")


def make_riemannian(g, n: int, box: float = 1.0, label: str = "riemannian"):
    g_asts = _normalize_metric(g, n)
    return FunctionSpray(n, metric_spray_fn(g_asts, n), Box.cube(n, box), label)


def make_sphere(n: int = 3, kappa: float = 1.0) -> SprayChart:
    """Constant-curvature metric 4 delta_ij / (1 + kappa |x|^2)^2 on one chart."""
    r2 = " + ".join(f"x{i}^2" for i in range(1, n + 1))
    entry = f"4 / (1 + {kappa!r}*({r2}))^2"
    g = {(i, i): entry for i in range(1, n + 1)}
    half = 0.999 / math.sqrt(max(kappa, 1.0)) / math.sqrt(n)
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

    return FunctionSpray(n, fn, Box.cube(n, box), "example72")


def make_custom(file=None, doc=None, label: str = "custom"):
    if doc is None:
        doc = exprdsl.load_spray_file(file)
    if doc.metric is not None:
        return make_randers(doc.metric, doc.one_form or {}, doc.dim, box=doc.box)
    return ExpressionSpray(doc.dim, doc.coeffs, Box.cube(doc.dim, doc.box), label)


def make_randers(a, b, n: int, box: float = 1.0) -> SprayChart:
    from . import finsler
    rd = finsler.RandersData(a, b, n, box=box)
    return finsler.induced_spray(rd.metric())


FAMILIES = {
    "flat": ("zero coefficients", "n (default 2), box"),
    "riemannian": ("geodesic spray of a metric g_ij(x)", "g entries gIJ, n, box"),
    "sphere": ("constant-curvature metric on one chart", "n (default 3), kappa"),
    "example72": ("2D family quadratic in y", "A, B, C, D, f expressions, box"),
    "randers": ("induced spray of a Randers norm", "a entries aIJ, b entries bI, n, box"),
    "custom": ("spray-definition file", "file path"),
}


def make_family(name: str, validate: bool = True, **params) -> SprayChart:
    """Construct a zoo spray by family name; validates 2-homogeneity."""
    builders = {
        "flat": make_flat,
        "riemannian": make_riemannian,
        "sphere": make_sphere,
        "example72": make_example72,
        "randers": make_randers,
        "custom": make_custom,
    }
    if name not in builders:
        raise ValueError(f"unknown spray family {name!r}; "
                         f"known: {', '.join(sorted(builders))}")
    spray = builders[name](**params)
    if validate:
        spray.check_homogeneity(sample_points(spray, 5, seed=20180704))
    return spray
