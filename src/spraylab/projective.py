"""Volume forms, S-curvature and the projective deformation of a spray.

Given a volume form sigma(x) dx^1...dx^n, the S-curvature of a spray is

    S = Pi - y^m d(log sigma)/dx^m,        Pi = dG^m/dy^m,

and the deformed spray is G_hat^i = G^i - S y^i/(n+1).  The deformed spray
always has vanishing S-curvature (hence vanishing chi), and its Berwald and
trace-free curvatures reproduce the classical projective invariants (Douglas
and Weyl).  All hat-quantities are available both directly (jets of the
composed coefficients) and through closed formulas in base-spray data; the
two routes cross-check each other.
"""

from __future__ import annotations

import numpy as np

from . import curvature, exprdsl, jets
from .jets import Jet, JetDomainError
from .spray_core import (Box, Frame, PointTM, ScalarField, SprayChart,
                         TensorValue, carrier_sum, carrier_value, rel_residual,
                         tensor_values)


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
        self.label = label or exprdsl.pretty(sigma_ast)

    @staticmethod
    def constant(n: int) -> "VolumeForm":
        return VolumeForm("1", n, label="1")

    def sigma(self, env):
        v = exprdsl.evaluate(self.ast, env)
        if carrier_value(v) <= 0.0:
            raise JetDomainError(f"volume density {self.label!r} is not positive")
        return v

    def dlog(self, env, memo=None):
        """d(log sigma)/dx^k for all k, computed as (d sigma/dx^k) / sigma."""
        memo = {} if memo is None else memo
        s = exprdsl.evaluate(self.ast, env, memo)
        if carrier_value(s) <= 0.0:
            raise JetDomainError(f"volume density {self.label!r} is not positive")
        return [jets.divide(exprdsl.evaluate(d, env, memo), s) for d in self.dast]

    def check_positive(self, box: Box, seed: int = 0, count: int = 20):
        rng = np.random.default_rng(seed)
        zeros = [0.0] * self.n
        for _ in range(count):
            self.sigma(list(box.sample(rng)) + zeros)

    def __repr__(self):
        return f"VolumeForm({self.label!r})"


# -- S-curvature -----------------------------------------------------------------

def s_jet(fr: Frame, dV: VolumeForm) -> Jet:
    """Jet of S = Pi - y^m dlog(sigma)/dx^m at the frame's point."""
    env = list(fr.xj) + list(fr.yj)
    dlog = dV.dlog(env)
    out = fr.Pi
    for m in range(fr.n):
        out = out - fr.yj[m] * dlog[m]
    return out


def s_curvature(G: SprayChart, dV: VolumeForm, p: PointTM) -> float:
    """S-curvature of (G, dV) at a point (a 1-homogeneous scalar)."""
    return carrier_value(s_jet(G.frame(p, 1), dV))


def chi_via_s(G: SprayChart, dV: VolumeForm, p: PointTM,
              ordering: str = "vertical-first") -> curvature.ChiValue:
    """chi_k = (1/2) {S_{.k|m} y^m - S_{|k}} for any volume form.

    `ordering` selects how the second derivative is iterated:
    "vertical-first" (canonical) takes the vertical derivative of S first and
    then the horizontal covariant derivative of the resulting covector;
    "horizontal-first" differentiates S horizontally first and applies the
    plain vertical derivative to the result.  Both are computed so their
    difference can be reported; do not assume they coincide a priori.
    """
    fr = G.frame(p, 3)
    n = fr.n
    S = s_jet(fr, dV)
    if ordering == "vertical-first":
        comps = 0.5 * tensor_values(fr.rapcsak(S))
    elif ordering == "horizontal-first":
        Sh = [fr.hpart(S, m) for m in range(n)]
        comps = np.empty(n)
        for k in range(n):
            acc = carrier_sum(fr.dy(Sh[m], k) * fr.yj[m] for m in range(n))
            comps[k] = 0.5 * carrier_value(acc - Sh[k])
    else:
        raise ValueError(f"unknown ordering {ordering!r}")
    return curvature.ChiValue(comps, f"volume[{ordering}]", p)


# -- the projective deformation ----------------------------------------------------

class DeformedSpray(SprayChart):
    """G_hat^i = G^i - S y^i/(n+1) for a base spray and a volume form.

    The coefficients compose functionally: jet evaluation pulls one extra
    derivative order from the base spray (for Pi inside S) rather than
    expanding anything symbolically.
    """

    def __init__(self, base: SprayChart, dV: VolumeForm):
        super().__init__(base.n, base.domain,
                         f"hat({base.label}; dV={dV.label})")
        self.base = base
        self.volume = dV

    def _make_coefficient_jets(self, frame, lifted):
        fr = self.base.frame(frame.point, frame.order + 1)
        S = s_jet(fr, self.volume)
        scale = 1.0 / (self.n + 1)
        return [fr.G[i].truncated(frame.order)
                - (S * fr.yj[i].truncated(frame.order)) * scale
                for i in range(self.n)]

    def eval_coefficients(self, xs, ys):
        """The coefficients at float arguments only.

        Frames get their coefficient jets from `_make_coefficient_jets`,
        which reads the S-jet off a base frame one order deeper.
        """
        p = PointTM(tuple(xs), tuple(ys))
        S = s_curvature(self.base, self.volume, p)
        base_vals = self.base.coefficients(p)
        return [base_vals[i] - S * ys[i] / (self.n + 1) for i in range(self.n)]


def deform(G: SprayChart, dV: VolumeForm) -> DeformedSpray:
    """The spray associated with (G, dV); its own S-curvature vanishes."""
    return DeformedSpray(G, dV)


def projective_invariance_check(G1: SprayChart, G2: SprayChart,
                                dV: VolumeForm, points) -> float:
    """Max relative difference of the deformed coefficients of two sprays.

    Near zero exactly when G1 and G2 are projectively related (they then share
    the same deformed spray for any fixed volume form).
    """
    if G1.n != G2.n:
        raise ValueError("sprays live on charts of different dimension")
    h1, h2 = deform(G1, dV), deform(G2, dV)
    worst = 0.0
    for p in points:
        a, b = h1.coefficients(p), h2.coefficients(p)
        worst = max(worst, rel_residual(a - b, a, b))
    return worst


def with_projective_factor(G: SprayChart, P, label: str = "") -> SprayChart:
    """The spray G^i + P(x, y) y^i for a 1-homogeneous scalar factor P."""
    field = P if isinstance(P, ScalarField) else ScalarField(P, G.n)

    class _Shifted(SprayChart):
        def eval_coefficients(self, xs, ys):
            base = G.eval_coefficients(xs, ys)
            pv = field.carrier(xs, ys)
            return [base[i] + pv * ys[i] for i in range(G.n)]

    return _Shifted(G.n, G.domain, label or f"{G.label}+P*y")


# -- hat-quantities ------------------------------------------------------------------

def tau_jet(fr: Frame, dV: VolumeForm) -> Jet:
    """tau = (S/(n+1))^2 + S_{|m} y^m/(n+1), the scalar entering R_hat."""
    n = fr.n
    S = s_jet(fr, dV)
    t = (S / (n + 1.0)) * (S / (n + 1.0))
    for m in range(n):
        t = t + (fr.hpart(S, m) * fr.yj[m]) / (n + 1.0)
    return t


def hat_riemann(G: SprayChart, dV: VolumeForm, p: PointTM,
                route: str = "direct") -> TensorValue:
    """Riemann curvature of the deformed spray, by two routes.

    direct:  jets of the composed coefficients of G_hat
    formula: R_hat^i_k = R^i_k + tau delta^i_k - (1/2) tau_{.k} y^i
             + 3 chi_k y^i/(n+1)
    """
    n = G.n
    if route == "direct":
        fr = deform(G, dV).frame(p, 2)
        comps = tensor_values(fr.R2)
    elif route == "formula":
        fr = G.frame(p, 3)
        tau = tau_jet(fr, dV)
        chi = tensor_values(curvature.chi_jets(fr))
        comps = tensor_values(fr.R2)
        tau_v = carrier_value(tau)
        y = np.array(p.y)
        for k in range(n):
            comps[:, k] += (-0.5 * carrier_value(fr.dy(tau, k))
                            + 3.0 * chi[k] / (n + 1)) * y
            comps[k, k] += tau_v
    else:
        raise ValueError(f"unknown route {route!r}")
    return TensorValue(comps, ("up", "down"), ("i", "k"), p, f"R_hat[{route}]")


def projective_ricci(G: SprayChart, dV: VolumeForm, p: PointTM) -> dict:
    """Projective Ricci data of (G, dV).

    Returns the Ricci tensor of the deformed spray (computed directly), the
    projective Ricci scalar Ric + (n-1) tau, and the symmetrized vertical
    hessian of chi, H_jl = (chi_{j.l} + chi_{l.j})/2.  The contraction
    Ric_hat_jl y^j y^l equals the scalar.
    """
    n = G.n
    hat_fr = deform(G, dV).frame(p, 3)
    ric_hat_jl = tensor_values(hat_fr.ric_jl)
    fr = G.frame(p, 4)
    tau_v = carrier_value(tau_jet(fr, dV))
    ric_hat = carrier_value(fr.ric) + (n - 1) * tau_v
    chi = curvature.chi_jets(fr)
    H = np.empty((n, n))
    for j in range(n):
        for l in range(j, n):
            H[j, l] = H[l, j] = 0.5 * (carrier_value(fr.dy(chi[j], l))
                                       + carrier_value(fr.dy(chi[l], j)))
    return {
        "ric_jl": TensorValue(ric_hat_jl, ("down", "down"), ("j", "l"), p,
                              "Ric_hat"),
        "ric": ric_hat,
        "h_jl": TensorValue(H, ("down", "down"), ("j", "l"), p, "H"),
        "tau": tau_v,
    }


def douglas(G: SprayChart, dV: VolumeForm, p: PointTM) -> TensorValue:
    """Douglas curvature: the Berwald curvature of the deformed spray."""
    fr = deform(G, dV).frame(p, 3)
    return TensorValue(tensor_values(fr.B), ("up", "down", "down", "down"),
                       ("i", "j", "k", "l"), p, "D")


def weyl_hat(G: SprayChart, dV: VolumeForm, p: PointTM) -> TensorValue:
    """T-curvature of the deformed spray; equals the Weyl curvature of G."""
    fr = deform(G, dV).frame(p, 3)
    comps = tensor_values(curvature.t_jets(fr))
    return TensorValue(comps, ("up", "down"), ("i", "k"), p, "T_hat")


def eta_hat(G: SprayChart, dV: VolumeForm, p: PointTM) -> TensorValue:
    """The eta-covector of the deformed spray (a projective invariant)."""
    fr = deform(G, dV).frame(p, 4)
    comps = tensor_values(curvature.eta_jets(fr))
    return TensorValue(comps, ("down",), ("k",), p, "eta_hat")


# -- S-closed sprays -------------------------------------------------------------------

def s_closed_residual(G: SprayChart, points) -> dict:
    """How far Pi = dG^m/dy^m is from being a closed 1-form on the base.

    Returns the max relative residuals of (a) the vertical hessian of Pi
    (zero iff Pi is linear in y) and (b) the x-curl of its y-gradient.
    """
    if not points:
        raise ValueError("need a non-empty point set")
    n = G.n
    lin = curl = lin_raw = curl_raw = 0.0
    for p in points:
        fr = G.frame(p, 3)
        Pi = fr.Pi
        grad = [fr.dy(Pi, k) for k in range(n)]
        gv = np.array([carrier_value(g) for g in grad])
        hess = np.array([[carrier_value(fr.dy(grad[k], l)) for l in range(n)]
                         for k in range(n)])
        curlm = np.array([[carrier_value(fr.dx(grad[k], l))
                           - carrier_value(fr.dx(grad[l], k))
                           for l in range(n)] for k in range(n)])
        lin = max(lin, rel_residual(hess, gv))
        curl = max(curl, rel_residual(curlm, gv))
        lin_raw = max(lin_raw, float(np.abs(hess).max()))
        curl_raw = max(curl_raw, float(np.abs(curlm).max()))
    return {"vertical_hessian": lin, "curl": curl,
            "vertical_hessian_raw": lin_raw, "curl_raw": curl_raw}


# -- projective / dual equivalence residuals ----------------------------------------

def rapcsak_residual(F, G: SprayChart, p: PointTM) -> TensorValue:
    """The covector F_{.k|m} y^m - F_{|k} (zero iff F is projectively
    equivalent to G at this point, at tolerance)."""
    field = F if isinstance(F, ScalarField) else ScalarField(F, G.n)
    fr = G.frame(p, 3)
    Fj = field.jet(fr)
    if carrier_value(Fj) <= 0.0:
        raise JetDomainError("the metric function must be positive at the point")
    return TensorValue(tensor_values(fr.rapcsak(Fj)), ("down",), ("k",), p,
                       "rapcsak")


def dual_residual(L, G: SprayChart, p: PointTM) -> TensorValue:
    """The covector (1/2) L_{.k|m} y^m - L_{|k} for a scalar L (dual
    equivalence residual)."""
    field = L if isinstance(L, ScalarField) else ScalarField(L, G.n)
    fr = G.frame(p, 3)
    comps = tensor_values(fr.rapcsak(field.jet(fr), 0.5))
    return TensorValue(comps, ("down",), ("k",), p, "dual")
