"""Derived curvature quantities of a bare spray: chi, Ricci, T, Weyl, eta.

Everything here is metric-free: only the spray coefficients enter.  The
chi-covector is computed by several independent routes that must agree:

* `chi_definition`: chi_k = -(1/6) {2 dR^m_k/dy^m + dR^m_m/dy^k}
* `chi_trace`:      chi_k = -(1/2) R^{ m}_{m kl} y^l
* `chi_local`:      chi_k = (1/2) {Pi_{x^m y^k} y^m - Pi_{x^k} - 2 Pi_{y^k y^m} G^m}
* `chi_from_t`:     chi_k = -(1/3) dT^m_k/dy^m

The definition and T are the float tables ``Frame.chi`` and ``Frame.T``, and
Ric and R are the traces of R^i_k (``Frame.ric``, ``Frame.r_scalar``), all
computed from the partials of G.  Every operation returns a float array of
components; where the value is a frame's table (chi, Ric_jl, T), it is that
read-only array itself; a `*_values` form takes a frame or a block.
The metric route through the mean Cartan torsion lives in
:mod:`spraylab.finsler`; volume-form routes live in :mod:`spraylab.projective`.
"""

from __future__ import annotations

import numpy as np

from .records import Record
from .spray_core import (Frame, PointTM, SprayChart, _minus_delta, plus_outer_y,
                         rel_residual, riemann_values)

FLAG_TOL = 1e-6          # classification flags (looser than identity rows)


# -- public operations ------------------------------------------------------------

def chi_definition(G: SprayChart, p: PointTM) -> np.ndarray:
    """chi from vertical derivatives of the two-index Riemann curvature."""
    return G.frame(p, 3).chi[0]


def chi_trace(G: SprayChart, p: PointTM) -> np.ndarray:
    """chi_k = -(1/2) R^{ m}_{m kl} y^l from the four-index tensor."""
    return chi_trace_values(G.frame(p, 3))


def chi_trace_values(fr: Frame) -> np.ndarray:
    """`chi_trace` of a frame or a block (`Frame.block`)."""
    return -0.5 * np.einsum("...mmkl,...l->...k", fr.R4[0], fr.y)


def chi_local(G: SprayChart, p: PointTM) -> np.ndarray:
    """Volume-form-free local formula built from Pi = dG^m/dy^m."""
    return chi_local_values(G.frame(p, 3))


def chi_local_values(fr: Frame) -> np.ndarray:
    """`chi_local` of a frame or a block."""
    n = fr.n
    _, grad, second = fr.table_of(lambda f: f.Pi, 2)
    acc = (np.einsum("...mk,...m->...k", second[..., :n, n:], fr.y)
           - 2.0 * np.einsum("...km,...m->...k", second[..., n:, n:], fr.G_values))
    return 0.5 * (acc - grad[..., :n])


def chi_from_t(G: SprayChart, p: PointTM) -> np.ndarray:
    """chi_k = -(1/3) dT^m_k/dy^m (needs one extra vertical order)."""
    return chi_from_t_values(G.frame(p, 4))


def chi_from_t_values(fr: Frame) -> np.ndarray:
    """`chi_from_t` of a frame or a block of order >= 4."""
    return np.einsum("...mkm->...k", fr.T[1][..., fr.n:]) / -3.0


def ricci_tensor(G: SprayChart, p: PointTM) -> np.ndarray:
    """Ric_jl = (R^{ m}_{j ml} + R^{ m}_{l mj}) / 2, symmetric by construction."""
    return G.frame(p, 3).ric_jl


def ricci_scalar(G: SprayChart, p: PointTM) -> float:
    """Ric = R^m_m, the trace of the two-index curvature."""
    return float(G.frame(p, 2).ric[0])


def curvature_scalar(G: SprayChart, p: PointTM) -> float:
    """R = Ric / (n - 1)."""
    return float(G.frame(p, 2).r_scalar[0])


def t_curvature(G: SprayChart, p: PointTM) -> np.ndarray:
    """The trace-free tensor whose vanishing means isotropic curvature."""
    return G.frame(p, 3).T[0]


def weyl(G: SprayChart, p: PointTM, route: str = "direct") -> np.ndarray:
    """Weyl curvature W^i_k; `route` is "direct" or "via_chi" (`weyl_values`)."""
    return weyl_values(G.frame(p, 3), route)


def weyl_values(fr: Frame, route: str = "direct") -> np.ndarray:
    """Weyl curvature W^i_k of a frame or a block (`Frame.block`).

    direct:  W^i_k = A^i_k - A^m_{k.m} y^i/(n+1) with A^i_k = R^i_k - R delta^i_k
    via_chi: W^i_k = T^i_k + 3 chi_k y^i/(n+1)
    """
    n = fr.n
    if route == "via_chi":
        return plus_outer_y([fr.T[0]], [fr.chi[0]], 3.0 / (n + 1), fr.y_table)[0]
    if route == "direct":
        A = [t.copy() for t in fr.R2_table[:2]]
        _minus_delta(A, fr.r_scalar)
        div = np.einsum("...mkm->...k", A[1][..., n:])          # A^m_{k.m}
        return A[0] - fr.y[..., :, None] * (div / (n + 1))[..., None, :]
    raise ValueError(f"unknown Weyl route {route!r}")


def eta(G: SprayChart, p: PointTM) -> np.ndarray:
    """eta_k = (1/2) R_{.k|m} y^m - R_{|k} (`eta_values`)."""
    return eta_values(G.frame(p, 4))


def eta_values(fr: Frame) -> np.ndarray:
    """eta_k of a frame or a block of order >= 4."""
    return fr.rapcsak(fr.r_scalar, 0.5)


def quantities(fr: Frame) -> dict:
    """The quantities `spraylab evaluate` reports from a frame or a block,
    by name: N, R (cross-checked), Ric_jl, Ric, R_scalar, chi, T, W and, at
    order 4, eta, each read off the frame as its public operation reads it
    (values alone: no first partials of R4, T or chi are built)."""
    q = {"N": fr.N_values, "R": riemann_values(fr), "Ric_jl": fr.ric_jl,
         "Ric": fr.ric[0], "R_scalar": fr.r_scalar[0], "chi": fr.chi[0],
         "T": fr.T[0], "W": weyl_values(fr)}
    if fr.order >= 4:
        q["eta"] = eta_values(fr)
    return q


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


def classify(blocks) -> Classification:
    """Classify a spray over a point sample by its T, W and chi residuals,
    read off the caller's frames or blocks (`Frame.block`) of order >= 3."""
    res = [np.concatenate(r) for r in zip(*(
        [np.reshape(rel_residual(t, fr.R2_table[0], lead=fr.lead), -1)
         for t in (fr.T[0], weyl_values(fr), fr.chi[0])] for fr in blocks))]
    if not res:
        raise ValueError("classification needs a non-empty point set")
    # np.max, unlike max, keeps a NaN wherever it sits
    return Classification(*(float(np.max(r)) for r in res))
