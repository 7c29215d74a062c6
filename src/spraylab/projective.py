"""Volume forms, S-curvature and the projective deformation of a spray.

Given a volume form sigma(x) dx^1...dx^n, the S-curvature of a spray is

    S = Pi - y^m d(log sigma)/dx^m,        Pi = dG^m/dy^m,

and the deformed spray is G_hat^i = G^i - S y^i/(n+1).  The deformed spray
always has vanishing S-curvature (hence vanishing chi), and its Berwald and
trace-free curvatures reproduce the classical projective invariants (Douglas
and Weyl).  Hat-quantities come directly (jets of the composed coefficients)
or through closed formulas in base-spray data; R_hat has both routes, which
the suite cross-checks.  Hat-quantities read S and tau = P^2 + P_{|m} y^m,
P = S/(n+1), off the deformed spray, which builds each once per point: S as
a jet (the deformed coefficients are differentiated further), tau as a
float table of values and partials (`Frame.hpart` on the table of P).  The
value of S alone (`s_curvature`) is read on floats off N on the point's
frame (`s_value`), bit for bit the jet's value, and the float deformed
coefficients take G's values off the same frame (`Frame.G_values`).
eta of the deformed spray (`eta_hat`) is taken under its own connection, on
its order-3 frame, from R_hat = R + tau on the base order-4 frame; the direct
route to R_hat's partials, which needs order-5 base jets, is kept as the
reference in the tests.  Every hat-quantity is a float array (a dict of them
and floats for `projective_ricci`); R_hat by the direct route, D and T_hat
are the read-only tables of the deformed spray's frame.  A `*_values` form
takes a frame or a block of points; its point operation calls it.
"""

from __future__ import annotations

import numpy as np

from . import exprdsl, jets
from .jets import Jet, JetDomainError
from .spray_core import (Box, Frame, PointTM, SprayChart, _frozen, _product,
                         carrier_sum, carrier_value, plus_outer_y, rel_residual)

DEFAULT_SIGMAS = ("1", "exp(x1)", "1+0.5*x1^2")    # when no volume form is given


class VolumeForm:
    """A positive density sigma(x) on the chart, given as an x-only expression."""

    def __init__(self, sigma_ast, n: int, label: str = ""):
        if isinstance(sigma_ast, str):
            label = label or sigma_ast
            sigma_ast = exprdsl.parse(sigma_ast, n)
        if exprdsl.uses_y(sigma_ast):
            raise ValueError("volume densities must depend on x only")
        self.n = n
        self.ast = sigma_ast
        self.dast = [exprdsl.differentiate(sigma_ast, k) for k in range(n)]
        # on jets, dlog is a jet exactly when sigma reads a variable
        self.varies = bool(exprdsl.variables(sigma_ast))
        self.label = label or exprdsl.pretty(sigma_ast)

    @staticmethod
    def constant(n: int) -> "VolumeForm":
        return VolumeForm("1", n, label="1")

    def dlog(self, xs):
        """d(log sigma)/dx^k for all k at x, computed as (d sigma/dx^k) / sigma,
        the n quotients through one reciprocal of a jet sigma."""
        memo = {}
        s = exprdsl.evaluate(self.ast, xs, memo)
        if carrier_value(s) <= 0.0:
            raise JetDomainError(f"volume density {self.label!r} is not positive")
        inv = s.reciprocal() if isinstance(s, Jet) else None
        return [jets.quotient(exprdsl.evaluate(d, xs, memo), s, inv) for d in self.dast]

    def check_positive(self, box: Box):
        """sigma > 0 at the sampled x of `box.check_sample()`, or a
        ValueError naming the first x where it is not (its caller names the
        density)."""
        zeros = [0.0] * self.n
        for x in box.check_sample():
            if carrier_value(exprdsl.evaluate(self.ast, list(x) + zeros)) <= 0.0:
                raise ValueError(f"not positive at x = {x}")

    def __repr__(self):
        return f"VolumeForm({self.label!r})"


# -- S-curvature -----------------------------------------------------------------

def s_jet(fr: Frame, dV: VolumeForm) -> Jet:
    """Jet of S = Pi - y^m dlog(sigma)/dx^m at the frame's point."""
    dlog = jets.x_only(dV.dlog, fr.xj)
    out = fr.Pi
    for m in range(fr.n):
        out = out - fr.yj[m] * dlog[m]
    return out


def s_value(fr: Frame, dV: VolumeForm, dlog=None):
    """S on floats at a frame's point or a block's [point], with the bits
    of `s_jet`'s value: the trace of `N_values`, then minus y^m dlog_m in
    `s_jet`'s order.  Where dlog_m is a jet there (sigma reads x), its
    product with y^m is a bincount started at +0.0: so + 0.0 here.
    `dlog` is `dV.dlog` at each point's x, if the caller holds it."""
    if dlog is None:
        frames = fr.frames if fr.lead else [fr]
        dlog = [dV.dlog(list(f.point.x)) for f in frames]
    dlog = np.reshape(dlog, fr.y.shape)
    out = carrier_sum(fr.N_values[..., m, m] for m in range(fr.n))
    for m in range(fr.n):
        t = fr.y[..., m] * dlog[..., m]
        out = out - (t + 0.0 if dV.varies else t)
    return out if fr.lead else float(out)


def s_curvature(G: SprayChart, dV: VolumeForm, p: PointTM) -> float:
    """S-curvature of (G, dV) at a point (a 1-homogeneous scalar), read off
    G's frame at p (`s_value`)."""
    return s_value(G.frame(p, 1), dV)


def chi_via_s(G: SprayChart, dV: VolumeForm, p: PointTM,
              ordering: str = "vertical-first") -> np.ndarray:
    """chi_k = (1/2) {S_{.k|m} y^m - S_{|k}} for any volume form.

    `ordering` selects how the second derivative is iterated:
    "vertical-first" (canonical) takes the vertical derivative of S first and
    then the horizontal covariant derivative of the resulting covector;
    "horizontal-first" differentiates S horizontally first and applies the
    plain vertical derivative to the result.  Both are computed so their
    difference can be reported; do not assume they coincide a priori.
    """
    return chi_via_s_values(G.frame(p, 3), dV, ordering)


def chi_via_s_values(fr: Frame, dV: VolumeForm,
                     ordering: str = "vertical-first") -> np.ndarray:
    """`chi_via_s` on a frame or a block."""
    n, hat = fr.n, deform(fr.spray, dV)
    S = fr.table_of(lambda f: hat.S(f.point, 3), 2)
    if ordering == "vertical-first":
        return 0.5 * fr.rapcsak(S)
    if ordering == "horizontal-first":
        Sh = fr.hpart(S)            # [m(, a)] = S_{|m} (and its partials)
        # a matrix product per point: S_{|m.k} y^m
        dSy = (np.swapaxes(Sh[1][..., n:], -1, -2) @ fr.y[..., None])[..., 0]
        return 0.5 * (dSy - Sh[0])
    raise ValueError(f"unknown ordering {ordering!r}")


# -- the projective deformation ----------------------------------------------------

class DeformedSpray(SprayChart):
    """G_hat^i = G^i - S y^i/(n+1) for a base spray and a volume form.

    The coefficients compose functionally: jet evaluation pulls one extra
    derivative order from the base spray (for Pi inside S) rather than
    expanding anything symbolically.  It owns the scalars of (G, dV) that
    every hat-quantity reads: S (`S`), built once per point, and tau
    (`tau_values`), read off a base frame or block.
    """

    def __init__(self, base: SprayChart, dV: VolumeForm):
        # no coefficient function: both evaluations are composed (below)
        super().__init__(base.n, None, base.domain,
                         f"hat({base.label}; dV={dV.label})")
        self.base = base
        self.volume = dV
        self._S = {}            # (x, y) -> S on the highest base frame asked for

    def S(self, p: PointTM, order: int) -> Jet:
        """S at p to this order for deformed frames, `chi_via_s`, `eta_hat`
        and `tau` (its value alone is `s_value`).  It is built once per
        point, on the base spray's one frame there, and a lower order is a
        prefix slice of it (`Jet.truncated`), the same numbers bit for bit:
        asking for the top order first costs one `s_jet` per point."""
        key = (p.x, p.y)
        top = self._S.get(key)
        if top is None or top.order < order - 1:    # Pi costs S an order
            top = self._S[key] = s_jet(self.base.frame(p, order), self.volume)
        return top.truncated(order - 1)

    def tau(self, p: PointTM) -> list:
        """`tau_values` on the base frame at p."""
        return self.tau_values(self.base.frame(p, 4))

    def tau_values(self, fr: Frame) -> list:
        """The table [tau, first, second partials] of tau = P^2 + P_{|m} y^m,
        P = S/(n+1), on a base frame or block of order 4."""
        P = [t / (self.n + 1.0) for t in fr.table_of(lambda f: self.S(f.point, 4), 3)]
        terms = zip(_product(",->", P[:3], P[:3]),
                    _product("m,m->", fr.hpart(P), fr.y_table))
        return _frozen([np.asarray(pp + py) for pp, py in terms])

    def _make_coefficient_jets(self, frame):
        """The coefficient jets from the S-jet and the y^i jets of the base
        frame one order deeper: the frame lifts no coordinates of its own."""
        fr = self.base.frame(frame.point, frame.order + 1)
        S = self.S(frame.point, frame.order + 1)
        scale = 1.0 / (self.n + 1)
        return [fr.G[i].truncated(frame.order)
                - (S * fr.yj[i].truncated(frame.order)) * scale
                for i in range(self.n)]

    def eval_coefficients(self, xs, ys):
        """The coefficients at float arguments only (frames take theirs
        from `_make_coefficient_jets`)."""
        return self.coefficient_values(self.base.frame(PointTM(tuple(xs), tuple(ys)), 1))

    def coefficient_values(self, fr: Frame) -> np.ndarray:
        """G^i - S y^i/(n+1) on floats at a base frame's point or a block's
        [point, i], from the base frame's `G_values` and `s_value`."""
        S = np.asarray(s_value(fr, self.volume))
        return fr.G_values - S[..., None] * fr.y / (self.n + 1)


def deform(G: SprayChart, dV: VolumeForm) -> DeformedSpray:
    """The spray associated with (G, dV); its own S-curvature vanishes.
    One per (G, dV), so all hat quantities share its frames."""
    hat = G._deformed.get(dV)
    if hat is None:
        hat = G._deformed[dV] = DeformedSpray(G, dV)
    return hat


def projective_invariance_check(G1: SprayChart, G2: SprayChart,
                                dV: VolumeForm, points) -> float:
    """Max relative difference of the deformed coefficients of two sprays.

    Near zero exactly when G1 and G2 are projectively related (they then share
    the same deformed spray for any fixed volume form).
    """
    if G1.n != G2.n:
        raise ValueError("sprays live on charts of different dimension")
    res = [projective_invariance_values(G1.frame(p, 1), G2.frame(p, 1), dV)
           for p in points]
    # np.max, unlike max, keeps a NaN wherever it sits
    return float(np.max(res, initial=0.0))


def projective_invariance_values(fr1: Frame, fr2: Frame, dV: VolumeForm):
    """`projective_invariance_check` on two sprays' frames or blocks."""
    a = deform(fr1.spray, dV).coefficient_values(fr1)
    b = deform(fr2.spray, dV).coefficient_values(fr2)
    return rel_residual(a - b, a, b, lead=fr1.lead)


def with_projective_factor(G: SprayChart, P, label: str = "") -> SprayChart:
    """The spray G^i + P(x, y) y^i for a 1-homogeneous scalar factor P, given
    as expression text and parsed once, over G's coefficients evaluated on
    the same carrier."""
    ast = exprdsl.parse(P, G.n)

    def fn(xs, ys):
        base = G.eval_coefficients(xs, ys)
        pv = exprdsl.evaluate(ast, list(xs) + list(ys))
        return [base[i] + pv * ys[i] for i in range(G.n)]

    return SprayChart(G.n, fn, G.domain, label or f"{G.label}+P*y")


# -- hat-quantities ------------------------------------------------------------------

def hat_riemann(G: SprayChart, dV: VolumeForm, p: PointTM,
                route: str = "direct") -> np.ndarray:
    """Riemann curvature of the deformed spray, by two routes.

    direct:  jets of the composed coefficients of G_hat
    formula: R_hat^i_k = R^i_k + tau delta^i_k - (1/2) tau_{.k} y^i
             + 3 chi_k y^i/(n+1)
    """
    if route == "direct":
        return deform(G, dV).frame(p, 2).R2_table[0]
    if route == "formula":
        return hat_riemann_formula(G.frame(p, 3), deform(G, dV).tau(p))
    raise ValueError(f"unknown route {route!r}")


def hat_riemann_formula(fr: Frame, tau: list) -> np.ndarray:
    """`hat_riemann`'s formula on a base frame or block, with its tau."""
    n = fr.n
    v = -0.5 * tau[1][..., n:] + 3.0 * fr.chi[0] / (n + 1)
    comps = plus_outer_y(fr.R2_table[:1], [v], 1.0, fr.y_table)[0]
    for i in range(n):
        comps[..., i, i] += tau[0]
    return comps


def projective_ricci(G: SprayChart, dV: VolumeForm, p: PointTM) -> dict:
    """Projective Ricci data of (G, dV).

    Returns the Ricci tensor of the deformed spray (computed directly), the
    projective Ricci scalar Ric + (n-1) tau, and the symmetrized vertical
    hessian of chi, H_jl = (chi_{j.l} + chi_{l.j})/2.  The contraction
    Ric_hat_jl y^j y^l equals the scalar.
    """
    hat = deform(G, dV)
    out = projective_ricci_values(G.frame(p, 4), hat.frame(p, 3), hat.tau(p))
    return dict(out, ric=float(out["ric"]), tau=float(out["tau"]))


def projective_ricci_values(fr: Frame, hfr: Frame, tau: list) -> dict:
    """`projective_ricci` from a base frame or block of order 4, the
    deformed spray's (`hfr`) and tau there (`DeformedSpray.tau_values`)."""
    n = fr.n
    dchi = fr.chi[1][..., n:]    # chi_{j.l}
    H = 0.5 * (dchi + np.swapaxes(dchi, -1, -2))
    return {"ric_jl": hfr.ric_jl, "ric": fr.ric[0] + (n - 1) * tau[0],
            "h_jl": H, "tau": tau[0]}


def douglas(G: SprayChart, dV: VolumeForm, p: PointTM) -> np.ndarray:
    """Douglas curvature: the Berwald curvature of the deformed spray."""
    return deform(G, dV).frame(p, 3).B[0]


def weyl_hat(G: SprayChart, dV: VolumeForm, p: PointTM) -> np.ndarray:
    """T-curvature of the deformed spray; equals the Weyl curvature of G."""
    return deform(G, dV).frame(p, 3).T[0]


def eta_hat(G: SprayChart, dV: VolumeForm, p: PointTM) -> np.ndarray:
    """The eta-covector of the deformed spray (a projective invariant),
    eta_hat = (1/2) R_hat_{.k|m} y^m - R_hat_{|k} under the deformed spray's
    own connection, on its order-3 frame.  R_hat = R + tau is read off the
    order-4 base frame: the deformed frame's own R would need order-5 base
    jets."""
    hat = deform(G, dV)
    return eta_hat_values(G.frame(p, 4), hat.frame(p, 3), hat.tau(p))


def eta_hat_values(fr: Frame, hfr: Frame, tau: list) -> np.ndarray:
    """`eta_hat` from a base frame or block of order 4, the deformed
    spray's (`hfr`) and tau there."""
    return hfr.rapcsak([r + t for r, t in zip(fr.r_scalar, tau)], 0.5)


# -- S-closed sprays -------------------------------------------------------------------

def s_closed_residual(G: SprayChart, points) -> dict:
    """How far Pi = dG^m/dy^m is from being a closed 1-form on the base.

    Returns the max relative residuals of (a) the vertical hessian of Pi
    (zero iff Pi is linear in y) and (b) the x-curl of its y-gradient.
    """
    if not points:
        raise ValueError("need a non-empty point set")
    n = G.n
    res = []
    for p in points:
        fr = G.frame(p, 3)
        _, grad, second = fr.table(fr.Pi, 2)
        gv, hess = grad[n:], second[n:, n:]
        curlm = second[n:, :n] - second[:n, n:]   # d(dPi/dy^k)/dx^l - (k<->l)
        res.append((rel_residual(hess, gv), rel_residual(curlm, gv),
                    np.abs(hess).max(), np.abs(curlm).max()))
    # np.max, unlike max, keeps a NaN wherever it sits
    lin, curl, lin_raw, curl_raw = (float(v) for v in np.max(res, axis=0))
    return {"vertical_hessian": lin, "curl": curl,
            "vertical_hessian_raw": lin_raw, "curl_raw": curl_raw}
