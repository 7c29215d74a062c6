"""Derived curvature quantities of a bare spray: chi, Ricci, T, Weyl, eta.

Everything here is metric-free: only the spray coefficients enter.  The
chi-covector is computed by several independent routes that must agree:

* ``definition``: chi_k = -(1/6) {2 dR^m_k/dy^m + dR^m_m/dy^k}
* ``trace``:      chi_k = -(1/2) R^{ m}_{m kl} y^l
* ``local``:      chi_k = (1/2) {Pi_{x^m y^k} y^m - Pi_{x^k} - 2 Pi_{y^k y^m} G^m}
* ``from-T``:     chi_k = -(1/3) dT^m_k/dy^m

The definition and T are the float tables ``Frame.chi`` and ``Frame.T``, and
Ric and R are the traces of R^i_k (``Frame.ric``, ``Frame.r_scalar``), all
computed from the partials of G.
The metric route through the mean Cartan torsion lives in
:mod:`spraylab.finsler`; volume-form routes live in :mod:`spraylab.projective`.
"""

from __future__ import annotations

import numpy as np

from .records import Record
from .spray_core import (PointTM, SprayChart, TensorValue, carrier_value,
                         plus_outer_y, rel_residual)

FLAG_TOL = 1e-6          # classification flags (looser than identity rows)


class ChiValue(Record):
    __slots__ = ("components", "route", "point")

    def __init__(self, components: np.ndarray, route: str, point: PointTM):
        self.components, self.route, self.point = components, route, point

    def __repr__(self):
        return f"ChiValue(route={self.route!r}, {self.components})"


# -- public operations ------------------------------------------------------------

def chi_definition(G: SprayChart, p: PointTM) -> ChiValue:
    """chi from vertical derivatives of the two-index Riemann curvature."""
    return ChiValue(G.frame(p, 3).chi[0], "definition", p)


def chi_trace(G: SprayChart, p: PointTM) -> ChiValue:
    """chi_k = -(1/2) R^{ m}_{m kl} y^l from the four-index tensor."""
    R4v = G.frame(p, 3).R4[0]
    return ChiValue(-0.5 * np.einsum("mmkl,l->k", R4v, np.array(p.y)),
                    "trace", p)


def chi_local(G: SprayChart, p: PointTM) -> ChiValue:
    """Volume-form-free local formula built from Pi = dG^m/dy^m."""
    fr = G.frame(p, 3)
    n = fr.n
    _, grad, second = fr.table(fr.Pi, 2)
    Gv = np.array([carrier_value(g) for g in fr.G])
    acc = (np.einsum("mk,m->k", second[:n, n:], np.array(p.y))
           - 2.0 * np.einsum("km,m->k", second[n:, n:], Gv))
    return ChiValue(0.5 * (acc - grad[:n]), "local-S", p)


def chi_from_t(G: SprayChart, p: PointTM) -> ChiValue:
    """chi_k = -(1/3) dT^m_k/dy^m (needs one extra vertical order)."""
    dT = G.frame(p, 4).T[1][..., G.n:]
    return ChiValue(np.einsum("mkm->k", dT) / -3.0, "from-T", p)


def ricci_tensor(G: SprayChart, p: PointTM) -> TensorValue:
    """Ric_jl = (R^{ m}_{j ml} + R^{ m}_{l mj}) / 2, symmetric by construction."""
    fr = G.frame(p, 3)
    return TensorValue(fr.ric_jl, ("down", "down"), ("j", "l"), p, "Ric")


def ricci_scalar(G: SprayChart, p: PointTM) -> float:
    """Ric = R^m_m, the trace of the two-index curvature."""
    return float(G.frame(p, 2).ric[0])


def curvature_scalar(G: SprayChart, p: PointTM) -> float:
    """R = Ric / (n - 1)."""
    return ricci_scalar(G, p) / (G.n - 1)


def t_curvature(G: SprayChart, p: PointTM) -> TensorValue:
    """The trace-free tensor whose vanishing means isotropic curvature."""
    return TensorValue(G.frame(p, 3).T[0], ("up", "down"), ("i", "k"), p, "T")


def weyl(G: SprayChart, p: PointTM, route: str = "direct") -> TensorValue:
    """Weyl curvature W^i_k; `route` is "direct" or "via_chi".

    direct:  W^i_k = A^i_k - A^m_{k.m} y^i/(n+1) with A^i_k = R^i_k - R delta^i_k
    via_chi: W^i_k = T^i_k + 3 chi_k y^i/(n+1)
    """
    fr = G.frame(p, 3)
    n = fr.n
    if route == "via_chi":
        comps = plus_outer_y(fr.T, fr.chi, 3.0 / (n + 1), fr.y_table)[0]
    elif route == "direct":
        Av, dA = (t.copy() for t in fr.R2_table[:2])
        for t, r in zip((Av, dA), fr.r_scalar):
            t[np.diag_indices(n)] -= r
        div = np.einsum("mkm->k", dA[..., n:])           # A^m_{k.m}
        comps = Av - np.outer(np.array(p.y), div / (n + 1))
    else:
        raise ValueError(f"unknown Weyl route {route!r}")
    return TensorValue(comps, ("up", "down"), ("i", "k"), p, f"W[{route}]")


def eta(G: SprayChart, p: PointTM) -> TensorValue:
    """eta_k = (1/2) R_{.k|m} y^m - R_{|k}."""
    fr = G.frame(p, 4)
    return TensorValue(fr.rapcsak(fr.r_scalar, 0.5), ("down",), ("k",), p,
                       "eta")


# -- classification ---------------------------------------------------------------

class Classification(Record):
    """Max relative residuals of the three pointwise conditions over a
    sample: max |T|, max |W| and max |chi|; each flag holds within FLAG_TOL."""
    __slots__ = ("isotropy_residual", "scalar_residual", "chi_residual")

    def __init__(self, isotropy_residual: float, scalar_residual: float,
                 chi_residual: float):
        self.isotropy_residual = isotropy_residual
        self.scalar_residual = scalar_residual
        self.chi_residual = chi_residual

    @property
    def isotropic(self) -> bool:
        return self.isotropy_residual <= FLAG_TOL

    @property
    def scalar_curvature(self) -> bool:
        return self.scalar_residual <= FLAG_TOL

    @property
    def chi_zero(self) -> bool:
        return self.chi_residual <= FLAG_TOL


def classify(G: SprayChart, points) -> Classification:
    """Classify a spray over a point sample by its T, W and chi residuals."""
    if not points:
        raise ValueError("classification needs a non-empty point set")
    t_res = w_res = c_res = 0.0
    for p in points:
        fr = G.frame(p, 3)
        R2v = fr.R2_table[0]
        t_res = max(t_res, rel_residual(fr.T[0], R2v))
        w_res = max(w_res, rel_residual(weyl(G, p, "direct").components, R2v))
        c_res = max(c_res, rel_residual(fr.chi[0], R2v))
    return Classification(t_res, w_res, c_res)
