"""Finsler-metric layer: fundamental tensor, Cartan torsion, induced sprays.

A metric is a positive 1-homogeneous scalar F(x, y) given as a DSL expression
(Randers norms are assembled into one).  With L = F^2 the layer computes

    g_ij = (1/2) d^2 L / dy^i dy^j          (fundamental tensor)
    C_ijk = (1/4) d^3 L / dy^i dy^j dy^k    (Cartan torsion)
    I_k = g^{ij} C_ijk                      (mean Cartan torsion)
    G^i = (1/4) g^{il} (L_{x^m y^l} y^m - L_{x^l})   (induced spray)

plus the metric route to the chi-covector through two horizontal covariant
derivatives of I.  Each quantity is a float array, and has one route:

* g, g^{-1}, C and I are float tables of values and partials from `_tables`,
  read off the one jet of L per point (`FinslerMetric.l_jets`) through
  `Frame.table`; products of tables go through the product rule
  (`spray_core._product`).
* The induced spray (`induced_spray`, one per metric) evaluates the symbolic
  x- and y-derivatives of L; its frames give chi_cartan's covariant
  derivatives (`Frame.cov_h`) and R^i_k.
* :class:`RandersData` holds the Randers 1-form: a, s_ij and s^i_j come from
  `_carrier_tensors`, and every covariant derivative of b or s is
  `Frame.cov_h` on the frames of the alpha spray (`alpha_spray`), whose
  Berwald connection is the Levi-Civita connection of a.  The closed-form
  deformed spray adds alpha s^i_0 to that spray.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import exprdsl, jets
from .jets import Jet, JetDomainError
from .spray_core import (Box, Frame, PointTM, SprayChart, _normalize_metric,
                         _parse_x_expr, _product, carrier_sum, carrier_value,
                         metric_draws, metric_spray_fn, rel_residual,
                         riemann_two_index, solve_carrier, tensor_values)

COND_LIMIT = 1e8


def _check_cond(gv: np.ndarray):
    c = float(np.linalg.cond(gv))
    if not np.isfinite(c) or c > COND_LIMIT:
        raise JetDomainError(f"fundamental tensor is numerically degenerate "
                             f"(cond {c:.2e})")


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
        self.L_ast = exprdsl.interned(exprdsl.Pow, F, 2, exprdsl._NOSPAN)
        self._dLy = [exprdsl.differentiate(self.L_ast, n + l) for l in range(n)]
        self._dLyy = [[exprdsl.differentiate(self._dLy[l], n + i)
                       for i in range(n)] for l in range(n)]
        self._dLx = [exprdsl.differentiate(self.L_ast, l) for l in range(n)]
        self._dLxy = [[exprdsl.differentiate(self._dLy[l], m)
                       for m in range(n)] for l in range(n)]
        self._l_jets = {}       # (x, y) -> the jet of L of the highest order asked
        self._spray = None      # built by `induced_spray`

    def l_jets(self, p: PointTM, order: int) -> Jet:
        """The jet of L at p.  L is evaluated once per point, at the highest
        order asked so far; lower orders are prefix slices of that jet
        (`Jet.truncated`), the same numbers bit for bit."""
        j = self._l_jets.get((p.x, p.y))
        if j is None or j.order < order:
            env = jets.lift_point(p.x + p.y, order)
            j = self._l_jets[p.x, p.y] = jets.as_jet(
                exprdsl.evaluate(self.L_ast, env), env[0])
        return j.truncated(order)


def _tables(F: FinslerMetric, p: PointTM, order: int, inverse: bool = True):
    """g, C, g^{-1} and I at p as tables [values, first, ...] (`Frame.table`,
    y slots only), all read off the order-`order` jet of L = F^2.

    g has the partials of orders 0..order-2, C and, with `inverse`, g^{-1}
    and I those of orders 0..order-3: the partials of g^{-1} follow from
    d(g^{-1}) = -g^{-1} dg g^{-1}, those of I from the product rule.  Without
    `inverse` the last two are None and a degenerate g is no error.
    """
    n = F.n
    Lt = Frame.table(F.l_jets(p, order), order)
    g = [0.5 * t[n:, n:] for t in Lt[2:]]
    C = [0.25 * t[n:, n:, n:] for t in Lt[3:]]
    if not inverse:
        return g, C, None, None
    _check_cond(g[0])
    ginv = [np.linalg.inv(g[0])]
    for _ in C[1:]:         # each pass adds one order of partials to g^{-1}
        dg_ginv = _product("jka,kl->jla", g[1:], ginv)
        ginv = ginv[:1] + [-t for t in _product("ij,jla->ila", ginv, dg_ginv)]
    return g, C, ginv, _product("ij,ijk->k", ginv, C)


def fundamental_tensor(F: FinslerMetric, p: PointTM) -> np.ndarray:
    """g_ij = (1/2) d^2(F^2)/dy^i dy^j."""
    return _tables(F, p, 2, inverse=False)[0][0]


def cartan_torsion(F: FinslerMetric, p: PointTM) -> np.ndarray:
    """C_ijk = (1/4) d^3(F^2)/dy^i dy^j dy^k (totally symmetric)."""
    return _tables(F, p, 3, inverse=False)[1][0]


def mean_cartan(F: FinslerMetric, p: PointTM) -> np.ndarray:
    """I_k = g^{ij} C_ijk."""
    return _tables(F, p, 3)[3][0]


def induced_spray(F: FinslerMetric) -> SprayChart:
    """The geodesic spray of a Finsler metric, built once per metric:

        G^i = (1/4) g^{il} (L_{x^m y^l} y^m - L_{x^l})
    """
    if F._spray is not None:
        return F._spray
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

    F._spray = SprayChart(n, fn, F.domain, f"spray({F.label})")
    F._spray.metric = F
    return F._spray


def chi_cartan(F: FinslerMetric, p: PointTM) -> np.ndarray:
    """The metric route to chi through the mean Cartan torsion:

        chi_k = (1/2) { I_{k|p|q} y^p y^q + I_m R^m_k }

    with | the horizontal covariant derivative of the induced spray.  This is
    the deepest chain in the library (order-5 jets of F^2 plus a matrix
    inverse), hence its looser tolerance downstream.  I is the table of
    `_tables` to second partials, from the one order-5 jet of L at p; the
    two covariant derivatives and R^i_k come from the induced spray's
    order-3 frame (`Frame.cov_h`, `Frame.R2_table`).
    """
    sfr = induced_spray(F).frame(p, 3)
    I = _tables(F, p, 5)[3]
    ddI = sfr.cov_h(sfr.cov_h(I, ("down",)), ("down", "down"))[0]   # I_{k|p|q}
    y = np.array(p.y)
    return 0.5 * (np.einsum("kpq,p,q->k", ddI, y, y) + I[0] @ sfr.R2_table[0])


# -- Randers data ----------------------------------------------------------------

class RandersData:
    """A Randers norm alpha + beta with the derived tensors of its 1-form.

    alpha = sqrt(a_ij(x) y^i y^j), beta = b_i(x) y^i, with the sampled
    smallness condition |b|_a < 1.  Covariant derivatives of beta are taken
    with the Levi-Civita connection of a, which is the Berwald connection of
    the alpha spray (`alpha_spray`, `Frame.cov_h`).
    """

    def __init__(self, a: dict, b: dict, n: int, box: float = 1.0):
        self.n = n
        self.box = Box.cube(n, box)
        self.a_asts = _normalize_metric(a, n, "a")
        b_map = {}
        for i, src in b.items():
            if i not in range(1, n + 1):
                raise ValueError(f"1-form entry b_{i}: index outside 1..{n}")
            b_map[int(i)] = _parse_x_expr(src, n, f"1-form entry b_{i}")
        zero = exprdsl.parse("0", n)
        self.b_asts = [b_map.get(i + 1, zero) for i in range(n)]
        self.db = [[exprdsl.differentiate(self.b_asts[i], k) for k in range(n)]
                   for i in range(n)]
        self._check_norm()
        self._alpha = None

    def _check_norm(self):
        """|b|_a < 1 and a_ij positive definite at 20 sampled x (`metric_draws`)."""
        for x, memo, av in metric_draws(self.a_asts, self.n, self.box, "a"):
            bv = np.array([carrier_value(exprdsl.evaluate(self.b_asts[i], x,
                                                          memo))
                           for i in range(self.n)])
            try:
                norm2 = float(bv @ np.linalg.solve(av, bv))
            except np.linalg.LinAlgError:
                raise ValueError(f"metric a_ij is singular at x = "
                                 f"{tuple(x[:self.n])}") from None
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
        """The Riemannian spray of alpha, built once, so that its frames are
        shared by every caller."""
        if self._alpha is None:
            self._alpha = SprayChart(self.n, metric_spray_fn(self.a_asts, self.n),
                                     self.box, "alpha")
        return self._alpha

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

    def _carrier_tensors(self, xs):
        """a_ij, s_ij = (1/2)(db_i/dx^j - db_j/dx^i) and s^i_j = a^{im} s_mj
        over a carrier point x, s^i_j from one solve (s_up[j][i] = s^i_j).
        s needs no connection: Gamma^m_ij is symmetric, so its terms in the
        two covariant derivatives of b cancel."""
        n, memo = self.n, {}
        av = [[exprdsl.evaluate(self.a_asts[i][j], xs, memo) for j in range(n)]
              for i in range(n)]
        dbv = [[exprdsl.evaluate(self.db[i][k], xs, memo) for k in range(n)]
               for i in range(n)]
        s = [[0.5 * (dbv[i][j] - dbv[j][i]) for j in range(n)] for i in range(n)]
        s_up = solve_carrier(av, [[s[i][j] for i in range(n)] for j in range(n)])
        return av, s, s_up

    def deformed_spray(self) -> SprayChart:
        """The closed-form deformed spray G_alpha^i + alpha s^i_0."""
        n, alpha_sp = self.n, self.alpha_spray()

        def fn(xs, ys):
            base = alpha_sp.eval_coefficients(xs, ys)
            av, _, s_up = jets.x_only(self._carrier_tensors, xs)
            alpha = jets.sqrt(carrier_sum(
                av[i][j] * (ys[i] * ys[j])
                for i, j in itertools.product(range(n), repeat=2)))
            return [base[i] + alpha * carrier_sum(s_up[j][i] * ys[j]
                                                  for j in range(n))
                    for i in range(n)]

        return SprayChart(n, fn, self.box, "randers-hat")

    # -- pointwise quantities ------------------------------------------------------

    def quantities(self, p: PointTM) -> dict:
        """All derived Randers tensors at a point (numeric).

        a, s_ij and s^i_j come from `_carrier_tensors` on the x jets of the
        alpha spray's frame (of order >= 2), b from the 1-form there;
        b_{i|j} (and r, its symmetric part), s_{ij|k} and s^m_{j|m} are
        `Frame.cov_h` on that frame: its Berwald connection is the
        Levi-Civita one of a, and the horizontal derivative of an x-only
        table is its x-partial.
        """
        fr = self.alpha_spray().frame(p, 2)
        av, s, s_up = self._carrier_tensors(fr.xj)
        b = [exprdsl.evaluate(ast, fr.xj) for ast in self.b_asts]
        # tables of b_i, s_ij and s^i_j (s_up transposed); constants come as floats
        lift = np.frompyfunc(lambda v: jets.as_jet(v, fr.xj[0]), 1, 1)
        b_t, s_t, sup_t = (Frame.table(lift(np.array(t, dtype=object)), 1)
                           for t in (b, s, list(zip(*s_up))))
        a_v, b_v, s_v, sup_v = tensor_values(av), b_t[0], s_t[0], sup_t[0]
        bcov_v = fr.cov_h(b_t, ("down",))[0]                       # b_{i|j}
        r_v = 0.5 * (bcov_v + bcov_v.T)
        y = np.array(p.y)
        b_up = np.linalg.solve(a_v, b_v)
        sj = b_up @ s_v                                  # s_j = b^i s_ij
        q_v = r_v @ sup_v                                # q_ij = r_im s^m_j
        t_v = s_v @ sup_v                                # t_ij = s_im s^m_j
        tj = b_up @ t_v
        s_cov = fr.cov_h(s_t, ("down", "down"))[0]                # s_{ij|k}
        sup_cov = fr.cov_h(sup_t, ("up", "down"))[0]              # s^i_{j|k}
        sup_div = np.einsum("mjm->j", sup_cov)                    # s^m_{j|m}
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
            # the order-3 frame first: `quantities` reads the same frame
            Rbar = riemann_two_index(alpha_sp, p)
            qt = self.quantities(p)
            y = np.array(p.y)
            kv = carrier_value(exprdsl.evaluate(kast, list(p.x) + [0.0] * n))
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
