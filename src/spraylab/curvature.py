"""Derived curvature quantities of a bare spray: chi, Ricci, T, Weyl, eta.

Everything here is metric-free: only the spray coefficients enter.  The
chi-covector is computed by several independent routes that must agree:

* ``definition``: chi_k = -(1/6) {2 dR^m_k/dy^m + dR^m_m/dy^k}
* ``trace``:      chi_k = -(1/2) R^{ m}_{m kl} y^l
* ``local``:      chi_k = (1/2) {Pi_{x^m y^k} y^m - Pi_{x^k} - 2 Pi_{y^k y^m} G^m}
* ``from-T``:     chi_k = -(1/3) dT^m_k/dy^m

The metric route through the mean Cartan torsion lives in
:mod:`spraylab.finsler`; volume-form routes live in :mod:`spraylab.projective`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .spray_core import (Frame, PointTM, SprayChart, TensorValue, _obj,
                         carrier_sum, carrier_value, rel_residual,
                         tensor_values)


@dataclass
class ChiValue:
    components: np.ndarray
    route: str
    point: PointTM

    def __repr__(self):
        return f"ChiValue(route={self.route!r}, {self.components})"


# -- jet-level builders (shared with projective / verify) -----------------------

def chi_jets(fr: Frame):
    """chi_k as jets from the vertical derivatives of the two-index curvature."""
    n = fr.n
    trace = fr.ric  # R^m_m
    out = _obj((n,))
    for k in range(n):
        t = fr.dy(trace, k)
        for m in range(n):
            t = t + 2.0 * fr.dy(fr.R2[m, k], m)
        out[k] = t / -6.0
    return out


def t_jets(fr: Frame):
    """T^i_k = R^i_k - {R delta^i_k - (1/2) dR/dy^k y^i} as jets."""
    n = fr.n
    R = fr.r_scalar
    out = _obj((n, n))
    for i, k in itertools.product(range(n), repeat=2):
        t = fr.R2[i, k] + 0.5 * (fr.dy(R, k) * fr.yj[i])
        if i == k:
            t = t - R
        out[i, k] = t
    return out


def eta_jets(fr: Frame):
    """eta_k = (1/2) R_{.k|m} y^m - R_{|k} as jets (R the curvature scalar)."""
    return fr.rapcsak(fr.r_scalar, 0.5)


# -- public operations ------------------------------------------------------------

def chi_definition(G: SprayChart, p: PointTM) -> ChiValue:
    """chi from vertical derivatives of the two-index Riemann curvature."""
    fr = G.frame(p, 3)
    return ChiValue(tensor_values(chi_jets(fr)), "definition", p)


def chi_trace(G: SprayChart, p: PointTM) -> ChiValue:
    """chi_k = -(1/2) R^{ m}_{m kl} y^l from the four-index tensor."""
    fr = G.frame(p, 3)
    n = fr.n
    comps = np.empty(n)
    for k in range(n):
        acc = carrier_sum(fr.R4[m, m, k, l] * fr.yj[l]
                          for m in range(n) for l in range(n))
        comps[k] = -0.5 * carrier_value(acc)
    return ChiValue(comps, "trace", p)


def chi_local(G: SprayChart, p: PointTM) -> ChiValue:
    """Volume-form-free local formula built from Pi = dG^m/dy^m."""
    fr = G.frame(p, 3)
    n = fr.n
    Pi = fr.Pi
    comps = np.empty(n)
    for k in range(n):
        acc = carrier_sum(fr.dy(fr.dx(Pi, m), k) * fr.yj[m]
                          - 2.0 * (fr.dy(fr.dy(Pi, k), m) * fr.G[m])
                          for m in range(n))
        comps[k] = 0.5 * carrier_value(acc - fr.dx(Pi, k))
    return ChiValue(comps, "local-S", p)


def chi_from_t(G: SprayChart, p: PointTM) -> ChiValue:
    """chi_k = -(1/3) dT^m_k/dy^m (needs one extra vertical order)."""
    fr = G.frame(p, 4)
    T = t_jets(fr)
    n = fr.n
    comps = np.empty(n)
    for k in range(n):
        comps[k] = carrier_value(carrier_sum(fr.dy(T[m, k], m)
                                             for m in range(n))) / -3.0
    return ChiValue(comps, "from-T", p)


def ricci_tensor(G: SprayChart, p: PointTM) -> TensorValue:
    """Ric_jl = (R^{ m}_{j ml} + R^{ m}_{l mj}) / 2, symmetric by construction."""
    fr = G.frame(p, 3)
    return TensorValue(tensor_values(fr.ric_jl), ("down", "down"), ("j", "l"),
                       p, "Ric")


def ricci_scalar(G: SprayChart, p: PointTM) -> float:
    """Ric = R^m_m, the trace of the two-index curvature."""
    fr = G.frame(p, 2)
    return carrier_value(fr.ric)


def curvature_scalar(G: SprayChart, p: PointTM) -> float:
    """R = Ric / (n - 1)."""
    return ricci_scalar(G, p) / (G.n - 1)


def t_curvature(G: SprayChart, p: PointTM) -> TensorValue:
    """The trace-free tensor whose vanishing means isotropic curvature."""
    fr = G.frame(p, 3)
    return TensorValue(tensor_values(t_jets(fr)), ("up", "down"), ("i", "k"),
                       p, "T")


def curvature_scalar_field(G: SprayChart):
    """The scalar R = Ric/(n-1) of a spray as a ScalarField.

    Usable wherever a scalar function of (x, y) is expected (for instance the
    dual-equivalence residual with L = R): given jet arguments of order m it
    returns the R-jet obtained from a frame two orders deeper.
    """
    from .spray_core import Jet, ScalarField, carrier_value

    def fn(xs, ys):
        p = PointTM(tuple(carrier_value(v) for v in xs),
                    tuple(carrier_value(v) for v in ys))
        orders = [v.order for v in list(xs) + list(ys) if isinstance(v, Jet)]
        if not orders:
            return carrier_value(G.frame(p, 2).r_scalar)
        return G.frame(p, min(orders) + 2).r_scalar

    return ScalarField(fn, G.n, label="R")


def weyl(G: SprayChart, p: PointTM, route: str = "direct") -> TensorValue:
    """Weyl curvature W^i_k; `route` is "direct" or "via_chi".

    direct:  W^i_k = A^i_k - A^m_{k.m} y^i/(n+1) with A^i_k = R^i_k - R delta^i_k
    via_chi: W^i_k = T^i_k + 3 chi_k y^i/(n+1)
    """
    fr = G.frame(p, 3)
    n = fr.n
    if route == "via_chi":
        T = tensor_values(t_jets(fr))
        chi = tensor_values(chi_jets(fr))
        comps = T + (3.0 / (n + 1)) * np.outer(np.array(p.y), chi)
    elif route == "direct":
        R = fr.r_scalar
        A = _obj((n, n))
        for i, k in itertools.product(range(n), repeat=2):
            A[i, k] = fr.R2[i, k] - R if i == k else fr.R2[i, k]
        comps = tensor_values(A)
        for k in range(n):
            div = carrier_value(carrier_sum(fr.dy(A[m, k], m)
                                            for m in range(n)))
            comps[:, k] -= div / (n + 1) * np.array(p.y)
    else:
        raise ValueError(f"unknown Weyl route {route!r}")
    return TensorValue(comps, ("up", "down"), ("i", "k"), p, f"W[{route}]")


def eta(G: SprayChart, p: PointTM) -> TensorValue:
    """eta_k = (1/2) R_{.k|m} y^m - R_{|k}."""
    fr = G.frame(p, 4)
    return TensorValue(tensor_values(eta_jets(fr)), ("down",), ("k",), p, "eta")


# -- classification ---------------------------------------------------------------

@dataclass
class Classification:
    """Max relative residuals of the three pointwise conditions over a sample."""
    isotropy_residual: float       # max |T|
    scalar_residual: float         # max |W|
    chi_residual: float            # max |chi|
    flag_tol: float
    points: int
    notes: dict = field(default_factory=dict)

    @property
    def isotropic(self) -> bool:
        return self.isotropy_residual <= self.flag_tol

    @property
    def scalar_curvature(self) -> bool:
        return self.scalar_residual <= self.flag_tol

    @property
    def chi_zero(self) -> bool:
        return self.chi_residual <= self.flag_tol


def classify(G: SprayChart, points, flag_tol: float = 1e-6) -> Classification:
    """Classify a spray over a point sample by its T, W and chi residuals."""
    if not points:
        raise ValueError("classification needs a non-empty point set")
    t_res = w_res = c_res = 0.0
    for p in points:
        fr = G.frame(p, 3)
        R2v = tensor_values(fr.R2)
        t_res = max(t_res, rel_residual(tensor_values(t_jets(fr)), R2v))
        w_res = max(w_res, rel_residual(weyl(G, p, "direct").components, R2v))
        c_res = max(c_res, rel_residual(tensor_values(chi_jets(fr)), R2v))
    return Classification(t_res, w_res, c_res, flag_tol, len(points))
