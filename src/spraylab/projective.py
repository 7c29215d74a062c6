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
value of S alone (`s_curvature`, the float deformed coefficients) is read on
floats off N on the point's frame (`s_value`), bit for bit the jet's value.
eta of the deformed spray is read off the base order-4 frame only (`eta_hat`);
its direct route, which needs order-5 base jets, is kept as the reference in
the tests.  Every hat-quantity is a float array (a dict of them and floats
for `projective_ricci`); R_hat by the direct route, D and T_hat are the
read-only tables of the deformed spray's frame.
"""

from __future__ import annotations

import numpy as np

from . import exprdsl, jets
from .jets import Jet, JetDomainError
from .spray_core import (Box, Frame, PointTM, ScalarField, SprayChart, _frozen,
                         _product, carrier_sum, carrier_value, plus_outer_y,
                         rel_residual)

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

    def sigma(self, env):
        v = exprdsl.evaluate(self.ast, env)
        if carrier_value(v) <= 0.0:
            raise JetDomainError(f"volume density {self.label!r} is not positive")
        return v

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
        """sigma > 0 at the sampled x of `box.check_sample()`."""
        zeros = [0.0] * self.n
        for x in box.check_sample():
            self.sigma(list(x) + zeros)

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


def s_value(fr: Frame, dV: VolumeForm) -> float:
    """S at the frame's point on floats, with the bits of `s_jet(fr, dV)`'s
    value: the trace of `N_values`, then minus y^m dlog_m in `s_jet`'s
    order.  Where dlog_m is a jet there (sigma reads x), its product with
    y^m is a bincount started at +0.0, so the float product gets + 0.0."""
    y, dlog = fr.point.y, dV.dlog(list(fr.point.x))
    out = carrier_sum(fr.N_values[m, m] for m in range(fr.n))
    for m in range(fr.n):
        t = y[m] * dlog[m]
        out = out - (t + 0.0 if dV.varies else t)
    return float(out)


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
    fr = G.frame(p, 3)
    n = fr.n
    S = deform(G, dV).S(p, 3)
    if ordering == "vertical-first":
        return 0.5 * fr.rapcsak(fr.table(S, 2))
    if ordering == "horizontal-first":
        Sh = fr.hpart(fr.table(S, 2))       # [m(, a)] = S_{|m} (and its partials)
        return 0.5 * (Sh[1][:, n:].T @ np.array(p.y) - Sh[0])
    raise ValueError(f"unknown ordering {ordering!r}")


# -- the projective deformation ----------------------------------------------------

class DeformedSpray(SprayChart):
    """G_hat^i = G^i - S y^i/(n+1) for a base spray and a volume form.

    The coefficients compose functionally: jet evaluation pulls one extra
    derivative order from the base spray (for Pi inside S) rather than
    expanding anything symbolically.  It owns S (`S`) and tau (`tau`), the
    scalars of (G, dV) that every hat-quantity reads.
    """

    def __init__(self, base: SprayChart, dV: VolumeForm):
        super().__init__(base.n, base.domain,
                         f"hat({base.label}; dV={dV.label})")
        self.base = base
        self.volume = dV
        self._S = {}            # (x, y) -> S on the highest base frame asked for
        self._tau = {}          # (x, y) -> tau on the order-4 base frame

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
        """The table [tau, first, second partials] of tau = P^2 + P_{|m} y^m,
        P = S/(n+1), from `table(S, 3)` on the base frame of order 4 at p,
        built once per point for `hat_riemann`, `projective_ricci`, `eta_hat`
        and the suite's Ricci split."""
        key = (p.x, p.y)
        if key not in self._tau:
            fr = self.base.frame(p, 4)
            P = [t / (self.n + 1.0) for t in fr.table(self.S(p, 4), 3)]
            terms = zip(_product(",->", P[:3], P[:3]),
                        _product("m,m->", fr.hpart(P), fr.y_table))
            self._tau[key] = _frozen([np.asarray(pp + py) for pp, py in terms])
        return self._tau[key]

    def _make_coefficient_jets(self, frame, lifted):
        fr = self.base.frame(frame.point, frame.order + 1)
        S = self.S(frame.point, frame.order + 1)
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
        S = s_value(self.base.frame(p, 1), self.volume)
        base_vals = self.base.coefficients(p)
        return [base_vals[i] - S * ys[i] / (self.n + 1) for i in range(self.n)]


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
            # on floats G's own values, evaluated once per (x, y)
            base = (G.eval_coefficients(xs, ys) if isinstance(xs[0], Jet)
                    else G.coefficients(PointTM(tuple(xs), tuple(ys))))
            pv = field.carrier(xs, ys)
            return [base[i] + pv * ys[i] for i in range(G.n)]

    return _Shifted(G.n, G.domain, label or f"{G.label}+P*y")


# -- hat-quantities ------------------------------------------------------------------

def hat_riemann(G: SprayChart, dV: VolumeForm, p: PointTM,
                route: str = "direct") -> np.ndarray:
    """Riemann curvature of the deformed spray, by two routes.

    direct:  jets of the composed coefficients of G_hat
    formula: R_hat^i_k = R^i_k + tau delta^i_k - (1/2) tau_{.k} y^i
             + 3 chi_k y^i/(n+1)
    """
    n = G.n
    if route == "direct":
        return deform(G, dV).frame(p, 2).R2_table[0]
    if route == "formula":
        fr = G.frame(p, 3)
        tau_v, dtau = deform(G, dV).tau(p)[:2]
        v = -0.5 * dtau[n:] + 3.0 * fr.chi[0] / (n + 1)
        comps = plus_outer_y(fr.R2_table[:1], [v], 1.0, fr.y_table)[0]
        comps[np.diag_indices(n)] += tau_v
        return comps
    raise ValueError(f"unknown route {route!r}")


def projective_ricci(G: SprayChart, dV: VolumeForm, p: PointTM) -> dict:
    """Projective Ricci data of (G, dV).

    Returns the Ricci tensor of the deformed spray (computed directly), the
    projective Ricci scalar Ric + (n-1) tau, and the symmetrized vertical
    hessian of chi, H_jl = (chi_{j.l} + chi_{l.j})/2.  The contraction
    Ric_hat_jl y^j y^l equals the scalar.
    """
    n, hat = G.n, deform(G, dV)
    hat_fr = hat.frame(p, 3)
    fr = G.frame(p, 4)
    tau_v = float(hat.tau(p)[0])
    ric_hat = float(fr.ric[0]) + (n - 1) * tau_v
    dchi = fr.chi[1][:, n:]      # chi_{j.l}
    H = 0.5 * (dchi + dchi.T)
    return {"ric_jl": hat_fr.ric_jl, "ric": ric_hat, "h_jl": H, "tau": tau_v}


def douglas(G: SprayChart, dV: VolumeForm, p: PointTM) -> np.ndarray:
    """Douglas curvature: the Berwald curvature of the deformed spray."""
    return deform(G, dV).frame(p, 3).B[0]


def weyl_hat(G: SprayChart, dV: VolumeForm, p: PointTM) -> np.ndarray:
    """T-curvature of the deformed spray; equals the Weyl curvature of G."""
    return deform(G, dV).frame(p, 3).T[0]


def eta_hat(G: SprayChart, dV: VolumeForm, p: PointTM) -> np.ndarray:
    """The eta-covector of the deformed spray (a projective invariant), read
    off the order-4 base frame.  With P = S/(n+1) the deformed spray has

        R_hat = R + tau,     N_hat^i_j = N^i_j - P_{.j} y^i - P delta^i_j,
        Gamma_hat^i_jk = Gamma^i_jk - P_{.j.k} y^i - P_{.j} delta^i_k
                         - P_{.k} delta^i_j,

    and eta_hat = (1/2) R_hat_{.k|m} y^m - R_hat_{|k} under (N_hat, Gamma_hat).
    """
    n, fr = G.n, G.frame(p, 4)
    P, dP, ddP = (t / (n + 1.0) for t in fr.table(deform(G, dV).S(p, 4), 2))
    y, eye, Py = np.array(p.y), np.eye(n), dP[n:]
    N = fr.N_values - np.multiply.outer(y, Py) - P * eye
    Gamma = (fr.Gamma_values - np.einsum("i,jk->ijk", y, ddP[n:, n:])
             - np.einsum("ik,j->ijk", eye, Py) - np.einsum("ij,k->ijk", eye, Py))
    R = [r + t for r, t in zip(fr.r_scalar, deform(G, dV).tau(p))]
    return fr.rapcsak(R, 0.5, (N, Gamma))


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
        _, grad, second = fr.table(fr.Pi, 2)
        gv, hess = grad[n:], second[n:, n:]
        curlm = second[n:, :n] - second[:n, n:]   # d(dPi/dy^k)/dx^l - (k<->l)
        lin = max(lin, rel_residual(hess, gv))
        curl = max(curl, rel_residual(curlm, gv))
        lin_raw = max(lin_raw, float(np.abs(hess).max()))
        curl_raw = max(curl_raw, float(np.abs(curlm).max()))
    return {"vertical_hessian": lin, "curl": curl,
            "vertical_hessian_raw": lin_raw, "curl_raw": curl_raw}
