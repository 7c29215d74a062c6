"""Finsler-metric layer: fundamental tensor, Cartan torsion, induced sprays.

A metric is a positive 1-homogeneous scalar F(x, y) given as a DSL expression
(Randers norms are assembled into one).  With L = F^2 the layer computes

    g_ij = (1/2) d^2 L / dy^i dy^j          (fundamental tensor)
    C_ijk = (1/4) d^3 L / dy^i dy^j dy^k    (Cartan torsion)
    I_k = g^{ij} C_ijk                      (mean Cartan torsion)
    G^i = (1/4) g^{il} (L_{x^m y^l} y^m - L_{x^l})   (induced spray)

plus the metric route to the chi-covector through two horizontal covariant
derivatives of I.  The Randers machinery (covariant derivatives of the
1-form, the r/s/q/t tensors and the closed-form deformed spray) lives in
:class:`RandersData`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import curvature, exprdsl, jets
from .jets import Jet, JetDomainError
from .spray_core import (Box, FunctionSpray, PointTM, SprayChart, TensorValue,
                         _normalize_metric, _obj, carrier_sum, carrier_value,
                         invert_carrier, metric_spray_fn, rel_residual,
                         riemann_two_index, solve_carrier)

COND_LIMIT = 1e8


def _check_cond(gv: np.ndarray, what: str = "fundamental tensor"):
    c = float(np.linalg.cond(gv))
    if not np.isfinite(c) or c > COND_LIMIT:
        raise JetDomainError(f"{what} is numerically degenerate (cond {c:.2e})")


class FinslerMetric:
    """A positive 1-homogeneous norm on the chart, backed by a DSL expression."""

    def __init__(self, F, n: int, domain: Box = None, label: str = ""):
        if isinstance(F, str):
            F = exprdsl.parse(F, n)
        self.n = n
        self.ast = F
        self.domain = domain if domain is not None else Box.cube(n, 1.0)
        self.label = label or "finsler"
        # L = F^2 shares the F subtree, so evaluation through a memo is cheap
        self.L_ast = exprdsl.Pow(F, 2, exprdsl._NOSPAN)
        self._dLy = [exprdsl.differentiate(self.L_ast, n + l) for l in range(n)]
        self._dLyy = [[exprdsl.differentiate(self._dLy[l], n + i)
                       for i in range(n)] for l in range(n)]
        self._dLx = [exprdsl.differentiate(self.L_ast, l) for l in range(n)]
        self._dLxy = [[exprdsl.differentiate(self._dLy[l], m)
                       for m in range(n)] for l in range(n)]
        self._l_jets = {}
        self._spray = None

    def value(self, p: PointTM) -> float:
        return carrier_value(exprdsl.evaluate(self.ast, list(p.x) + list(p.y)))

    def l_jets(self, p: PointTM, order: int) -> Jet:
        key = (p.x, p.y, order)
        j = self._l_jets.get(key)
        if j is None:
            env = jets.lift_point(p.x + p.y, order)
            j = jets.as_jet(exprdsl.evaluate(self.L_ast, env), env[0])
            self._l_jets[key] = j
        return j

    def spray(self) -> SprayChart:
        if self._spray is None:
            self._spray = _induced_spray(self)
        return self._spray

    def validate(self, points, tol: float = 1e-9):
        """Sampled checks: F > 0, 1-homogeneity, positive definite g."""
        for p in points:
            f = self.value(p)
            if f <= 0.0:
                raise ValueError(f"{self.label}: F is not positive at {p}")
            for s in (0.5, 2.0, 3.0):
                fs = self.value(p.scaled(s))
                if abs(fs - s * f) > tol * (1.0 + abs(f)):
                    raise ValueError(f"{self.label}: F is not 1-homogeneous")
            ev = np.linalg.eigvalsh(fundamental_tensor(self, p).components)
            if ev.min() <= 0.0:
                raise ValueError(f"{self.label}: fundamental tensor not positive "
                                 f"definite at {p} (eigenvalues {ev})")


def fundamental_tensor(F: FinslerMetric, p: PointTM) -> TensorValue:
    """g_ij = (1/2) d^2(F^2)/dy^i dy^j."""
    n = F.n
    lj = F.l_jets(p, 2)
    g = np.empty((n, n))
    for i in range(n):
        di = lj.d(n + i)
        for j in range(i, n):
            g[i, j] = g[j, i] = 0.5 * carrier_value(di.d(n + j))
    return TensorValue(g, ("down", "down"), ("i", "j"), p, "g")


def cartan_torsion(F: FinslerMetric, p: PointTM) -> TensorValue:
    """C_ijk = (1/4) d^3(F^2)/dy^i dy^j dy^k (totally symmetric)."""
    n = F.n
    lj = F.l_jets(p, 3)
    C = np.empty((n, n, n))
    for i in range(n):
        di = lj.d(n + i)
        for j in range(i, n):
            dij = di.d(n + j)
            for k in range(j, n):
                v = 0.25 * carrier_value(dij.d(n + k))
                for perm in itertools.permutations((i, j, k)):
                    C[perm] = v
    return TensorValue(C, ("down",) * 3, ("i", "j", "k"), p, "C")


def mean_cartan(F: FinslerMetric, p: PointTM) -> TensorValue:
    """I_k = g^{ij} C_ijk."""
    g = fundamental_tensor(F, p).components
    _check_cond(g)
    C = cartan_torsion(F, p).components
    ginv = np.linalg.inv(g)
    return TensorValue(np.einsum("ij,ijk->k", ginv, C), ("down",), ("k",), p, "I")


def _induced_spray(F: FinslerMetric) -> SprayChart:
    n = F.n

    def fn(xs, ys):
        env = list(xs) + list(ys)
        memo = {}
        g = [[0.5 * exprdsl.evaluate(F._dLyy[i][j], env, memo) for j in range(n)]
             for i in range(n)]
        _check_cond(np.array([[carrier_value(v) for v in row] for row in g]))
        q = []
        for l in range(n):
            acc = -exprdsl.evaluate(F._dLx[l], env, memo)
            for m in range(n):
                acc = acc + exprdsl.evaluate(F._dLxy[l][m], env, memo) * ys[m]
            q.append(acc)
        (sol,) = solve_carrier(g, [q])
        return [0.25 * v for v in sol]

    sp = FunctionSpray(n, fn, F.domain, f"spray({F.label})")
    sp.metric = F
    return sp


def induced_spray(F: FinslerMetric) -> SprayChart:
    """The geodesic spray of a Finsler metric (memoized per metric)."""
    return F.spray()


def chi_cartan(F: FinslerMetric, p: PointTM) -> curvature.ChiValue:
    """The metric route to chi through the mean Cartan torsion:

        chi_k = (1/2) { I_{k|p|q} y^p y^q + I_m R^m_k }

    with | the horizontal covariant derivative of the induced spray.  This is
    the deepest chain in the library (order-5 jets of F^2 plus a matrix
    inverse), hence its looser tolerance downstream.
    """
    n = F.n
    sp = F.spray()
    sfr = sp.frame(p, 3)
    lj = F.l_jets(p, 5)
    g = [[0.5 * lj.d(n + i).d(n + j) for j in range(n)] for i in range(n)]
    _check_cond(np.array([[carrier_value(v) for v in row] for row in g]))
    ginv = invert_carrier(g)
    C = _obj((n, n, n))
    for i in range(n):
        for j in range(i, n):
            dij = lj.d(n + i).d(n + j)
            for k in range(j, n):
                v = 0.25 * dij.d(n + k)
                for perm in itertools.permutations((i, j, k)):
                    C[perm] = v
    I = _obj((n,))
    for k in range(n):
        I[k] = carrier_sum(ginv[i][j] * C[i, j, k]
                           for i, j in itertools.product(range(n), repeat=2))
    dI = [sfr.cov_h(I, ("down",), q) for q in range(n)]
    Ipq = _obj((n, n))
    for k, q in itertools.product(range(n), repeat=2):
        Ipq[k, q] = dI[q][k]
    ddI = [sfr.cov_h(Ipq, ("down", "down"), q) for q in range(n)]
    comps = np.empty(n)
    for k in range(n):
        acc = carrier_sum(itertools.chain(
            (ddI[qq][k, pp] * (sfr.yj[pp] * sfr.yj[qq])
             for pp, qq in itertools.product(range(n), repeat=2)),
            (I[m] * sfr.R2[m, k] for m in range(n))))
        comps[k] = 0.5 * carrier_value(acc)
    return curvature.ChiValue(comps, "cartan", p)


# -- Randers data ----------------------------------------------------------------

class RandersData:
    """A Randers norm alpha + beta with the derived tensors of its 1-form.

    alpha = sqrt(a_ij(x) y^i y^j), beta = b_i(x) y^i, with the sampled
    smallness condition |b|_a < 1.  Covariant derivatives of beta are taken
    with the Levi-Civita connection of a.
    """

    def __init__(self, a, b, n: int, box: float = 1.0):
        self.n = n
        self.box = Box.cube(n, box)
        self.a_asts = _normalize_metric(a, n)
        b_map = {}
        if isinstance(b, dict):
            items = b.items()
        else:
            items = ((i + 1, v) for i, v in enumerate(b))
        for i, src in items:
            ast = src if not isinstance(src, str) else exprdsl.parse(src, n)
            if exprdsl.uses_y(ast):
                raise ValueError(f"1-form entry b_{i} must depend on x only")
            b_map[int(i)] = ast
        zero = exprdsl.parse("0", n)
        self.b_asts = [b_map.get(i + 1, zero) for i in range(n)]
        self.da = [[[exprdsl.differentiate(self.a_asts[i][j], k)
                     for k in range(n)] for j in range(n)] for i in range(n)]
        self.db = [[exprdsl.differentiate(self.b_asts[i], k) for k in range(n)]
                   for i in range(n)]
        self._check_norm()

    def _check_norm(self, count: int = 20, seed: int = 0):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            x = list(self.box.sample(rng)) + [0.0] * self.n
            memo = {}
            av = np.array([[carrier_value(exprdsl.evaluate(self.a_asts[i][j],
                                                           x, memo))
                            for j in range(self.n)] for i in range(self.n)])
            bv = np.array([carrier_value(exprdsl.evaluate(self.b_asts[i], x,
                                                          memo))
                           for i in range(self.n)])
            norm2 = float(bv @ np.linalg.solve(av, bv))
            if norm2 >= 1.0:
                raise ValueError(f"|b|_a = {math.sqrt(norm2):.4f} >= 1 at x = "
                                 f"{tuple(x[:self.n])}")

    # -- constructions -----------------------------------------------------------

    def metric(self) -> FinslerMetric:
        """The Randers norm alpha + beta as a FinslerMetric."""
        n = self.n
        quad = []
        for i in range(n):
            for j in range(n):
                quad.append(f"({exprdsl.pretty(self.a_asts[i][j])})"
                            f"*y{i + 1}*y{j + 1}")
        src = "sqrt(" + " + ".join(quad) + ")"
        lin = [f"({exprdsl.pretty(self.b_asts[i])})*y{i + 1}" for i in range(n)
               if not exprdsl.ast_equal(self.b_asts[i], exprdsl.parse("0", n))]
        if lin:
            src += " + " + " + ".join(lin)
        return FinslerMetric(src, n, domain=self.box, label="randers")

    def alpha_spray(self) -> SprayChart:
        """The Riemannian spray of alpha."""
        return FunctionSpray(self.n, metric_spray_fn(self.a_asts, self.n),
                             self.box, "alpha")

    def volume_alpha(self):
        """dV_alpha: the density sqrt(det a) as a volume form."""
        from .projective import VolumeForm
        n = self.n
        terms = []
        for perm in itertools.permutations(range(n)):
            inv = sum(1 for i in range(n) for j in range(i + 1, n)
                      if perm[i] > perm[j])
            sign = -1 if inv % 2 else 1
            prod = "*".join(f"({exprdsl.pretty(self.a_asts[i][perm[i]])})"
                            for i in range(n))
            terms.append(("" if sign > 0 else "-") + prod)
        det = " + ".join(terms).replace("+ -", "- ")
        return VolumeForm(f"sqrt({det})", n, label="dV_alpha")

    def _carrier_tensors(self, xs, memo):
        """Christoffels of a and the derived s-tensors over a carrier point."""
        n = self.n
        av = [[exprdsl.evaluate(self.a_asts[i][j], xs, memo) for j in range(n)]
              for i in range(n)]
        dav = [[[exprdsl.evaluate(self.da[i][j][k], xs, memo) for k in range(n)]
                for j in range(n)] for i in range(n)]
        bv = [exprdsl.evaluate(self.b_asts[i], xs, memo) for i in range(n)]
        dbv = [[exprdsl.evaluate(self.db[i][k], xs, memo) for k in range(n)]
               for i in range(n)]
        # Christoffel symbols of a: solve a . Gamma_(jk) = rhs_(jk)
        rhs = []
        for j, k in itertools.product(range(n), repeat=2):
            col = [0.5 * (dav[l][j][k] + dav[l][k][j] - dav[j][k][l])
                   for l in range(n)]
            rhs.append(col)
        sols = solve_carrier(av, rhs)
        Gm = [[[sols[j * n + k][i] for k in range(n)] for j in range(n)]
              for i in range(n)]
        # covariant derivative of the 1-form
        bcov = [[dbv[i][j] for j in range(n)] for i in range(n)]
        for i, j in itertools.product(range(n), repeat=2):
            for m in range(n):
                bcov[i][j] = bcov[i][j] - bv[m] * Gm[m][i][j]
        s = [[0.5 * (bcov[i][j] - bcov[j][i]) for j in range(n)]
             for i in range(n)]
        r = [[0.5 * (bcov[i][j] + bcov[j][i]) for j in range(n)]
             for i in range(n)]
        s_up = solve_carrier(av, [[s[i][j] for i in range(n)]
                                  for j in range(n)])
        # s_up[j][i] = s^i_j
        return av, dav, bv, bcov, r, s, s_up, Gm

    def deformed_spray(self) -> SprayChart:
        """The closed-form deformed spray G_alpha^i + alpha s^i_0."""
        n = self.n
        alpha_fn = metric_spray_fn(self.a_asts, n)

        def fn(xs, ys):
            memo = {}
            base = alpha_fn(xs, ys)
            av, _, _, _, _, _, s_up, _ = self._carrier_tensors(list(xs), memo)
            alpha = jets.sqrt(carrier_sum(
                av[i][j] * (ys[i] * ys[j])
                for i, j in itertools.product(range(n), repeat=2)))
            return [base[i] + alpha * carrier_sum(s_up[j][i] * ys[j]
                                                  for j in range(n))
                    for i in range(n)]

        return FunctionSpray(n, fn, self.box, "randers-hat")

    # -- pointwise quantities ------------------------------------------------------

    def quantities(self, p: PointTM) -> dict:
        """All derived Randers tensors at a point (numeric)."""
        n = self.n
        xl = jets.lift_point(p.x, 2)
        memo = {}
        av, dav, bv, bcov, r, s, s_up, Gm = self._carrier_tensors(xl, memo)
        val = carrier_value
        y = np.array(p.y)
        a_v = np.array([[val(av[i][j]) for j in range(n)] for i in range(n)])
        b_v = np.array([val(b) for b in bv])
        bcov_v = np.array([[val(bcov[i][j]) for j in range(n)]
                           for i in range(n)])
        r_v = np.array([[val(r[i][j]) for j in range(n)] for i in range(n)])
        s_v = np.array([[val(s[i][j]) for j in range(n)] for i in range(n)])
        sup_v = np.array([[val(s_up[j][i]) for j in range(n)]
                          for i in range(n)])          # s^i_j
        Gm_v = np.array([[[val(Gm[i][j][k]) for k in range(n)]
                          for j in range(n)] for i in range(n)])
        b_up = np.linalg.solve(a_v, b_v)
        sj = b_up @ s_v                                  # s_j = b^i s_ij
        q_v = r_v @ sup_v                                # q_ij = r_im s^m_j
        t_v = s_v @ sup_v                                # t_ij = s_im s^m_j
        tj = b_up @ t_v
        # covariant derivatives of s_ij and s^i_j (values)
        s_cov = np.empty((n, n, n))
        for i, j, k in itertools.product(range(n), repeat=3):
            v = val(s[i][j].d(k)) if isinstance(s[i][j], Jet) else 0.0
            for m in range(n):
                v -= Gm_v[m][i][k] * s_v[m, j] + Gm_v[m][j][k] * s_v[i, m]
            s_cov[i, j, k] = v
        sup_div = np.zeros(n)                            # s^m_{j|m}
        for j in range(n):
            for m in range(n):
                v = val(s_up[j][m].d(m)) if isinstance(s_up[j][m], Jet) else 0.0
                for pp in range(n):
                    v += Gm_v[m][m][pp] * sup_v[pp, j] - Gm_v[pp][j][m] * sup_v[m, pp]
                sup_div[j] += v
        alpha = math.sqrt(float(y @ a_v @ y))
        return {
            "a": a_v, "b": b_v, "b_cov": bcov_v, "r": r_v, "s": s_v,
            "s_up": sup_v, "s_j": sj, "q": q_v, "t": t_v, "t_j": tj,
            "s_cov": s_cov, "s_div": sup_div, "alpha": alpha,
            "s_0": sup_v @ y, "s_low0": s_v @ y, "t_00": float(y @ t_v @ y),
            "t_low0": t_v @ y, "t_up0": (sup_v @ sup_v) @ y,
            "y_low": a_v @ y,
        }

    def isotropy_residuals(self, kappa, points) -> dict:
        """Residuals of the two curvature conditions for scalar curvature.

        kappa is a scalar function of x (expression).  Returns the max
        relative residuals of the curvature equation and of the covariant
        conservation equation for s_ij.
        """
        n = self.n
        kast = kappa if not isinstance(kappa, str) else exprdsl.parse(kappa, n)
        alpha_sp = self.alpha_spray()
        res1 = res2 = 0.0
        for p in points:
            qt = self.quantities(p)
            y = np.array(p.y)
            kv = carrier_value(exprdsl.evaluate(kast, list(p.x) + [0.0] * n))
            Rbar = riemann_two_index(alpha_sp, p).components
            a2 = qt["alpha"] ** 2
            t_up = qt["s_up"] @ qt["s_up"]
            rhs = kv * (a2 * np.eye(n) - np.outer(y, qt["y_low"]))
            rhs += a2 * t_up + qt["t_00"] * np.eye(n)
            rhs -= np.outer(y, qt["t_low0"])             # - t_{k0} y^i
            rhs -= np.outer(qt["t_up0"], qt["y_low"])    # - t^i_0 y_k
            rhs -= 3.0 * np.outer(qt["s_0"], qt["s_low0"])
            res1 = max(res1, rel_residual(Rbar - rhs, Rbar, rhs))
            lhs2 = qt["s_cov"]
            rhs2 = np.empty_like(lhs2)
            for i, j, k in itertools.product(range(n), repeat=3):
                rhs2[i, j, k] = (qt["a"][i, k] * qt["s_div"][j]
                                 - qt["a"][j, k] * qt["s_div"][i]) / (n - 1)
            res2 = max(res2, rel_residual(lhs2 - rhs2, lhs2, rhs2))
        return {"curvature_eq": res1, "conservation_eq": res2}

    def hat_R(self, kappa, p: PointTM) -> float:
        """Closed-form curvature scalar of the deformed spray:

            R_hat = kappa alpha^2 + t_00 + 2 alpha s^m_{0|m} / (n - 1)
        """
        n = self.n
        kast = kappa if not isinstance(kappa, str) else exprdsl.parse(kappa, n)
        qt = self.quantities(p)
        kv = carrier_value(exprdsl.evaluate(kast, list(p.x) + [0.0] * n))
        y = np.array(p.y)
        s0_div = float(qt["s_div"] @ y)
        return kv * qt["alpha"] ** 2 + qt["t_00"] + 2.0 * qt["alpha"] * s0_div / (n - 1)
