"""The identity-residual suite: every asserted identity as a scored row.

`ROWS` declares each row once, in report order; its residual function reads
the values shared at one sample point (`PointData`, or `VolumeData` per
volume form), each computed once.  A row keeps its worst residual (relative:
scaled by 1 + the largest component magnitude of the tensors entering the
identity) with its point.  Rows whose hypotheses fail on the sample
(isotropy, closedness, dimension bounds) are not applicable instead of
passing vacuously.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable

import numpy as np

from . import curvature as cv
from . import projective as pj
from .projective import DEFAULT_SIGMAS
from .records import Frozen, Record
from .spray_core import (SprayChart, _product, carrier_value, plus_outer_y,
                         rel_residual)

S_CLOSED_TOL = 1e-8      # hypothesis threshold for the closedness test
ROLES4 = ("up", "down", "down", "down")


class Row(Record):
    __slots__ = ("id", "eq_tag", "statement", "tolerance", "residuals",
                 "point_ids", "applicable", "note")

    def __init__(self, id: str, eq_tag: str, statement: str, tolerance: float,
                 residuals: list | None = None, point_ids: list | None = None,
                 applicable: bool = True, note: str = ""):
        self.id, self.eq_tag, self.statement = id, eq_tag, statement
        self.tolerance = tolerance
        self.residuals = [] if residuals is None else residuals
        self.point_ids = [] if point_ids is None else point_ids
        self.applicable, self.note = applicable, note

    def add(self, value: float, point=None):
        self.residuals.append(float(value))
        self.point_ids.append(point)

    @property
    def max_residual(self):
        # np.max, unlike max, keeps a NaN wherever it sits
        return float(np.max(self.residuals)) if self.residuals else None

    @property
    def mean_residual(self):
        return sum(self.residuals) / len(self.residuals) if self.residuals else None

    @property
    def argmax_point(self):
        return self.point_ids[int(np.argmax(self.residuals))] if self.residuals else None

    @property
    def passed(self):
        if not self.applicable or self.max_residual is None:
            return None
        return bool(self.max_residual <= self.tolerance)

    def as_dict(self):
        return {
            "id": self.id,
            "eq_tag": self.eq_tag,
            "quote": self.statement,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "argmax_point": self.argmax_point,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "applicable": self.applicable,
            "note": self.note,
        }


class PointData:
    """What the rows share at one sample point, each value computed once on
    first use, and the residuals of the point rows too long for `ROWS`."""

    def __init__(self, run: "SuiteRunner", index: int):
        self.run, self.index, self.spray, self.n = run, index, run.spray, run.spray.n
        self.p = run.points[index]
        self.y = np.array(self.p.y)

    # the point's one frame: every lower order reads its leading tables
    fr = cached_property(lambda pt: pt.spray.frame(pt.p, 4))
    # chi by its definition, the reference of every other chi route
    chi = cached_property(lambda pt: cv.chi_definition(pt.spray, pt.p))
    # R^i_k, the scale of the rows that state a vanishing
    scale = cached_property(lambda pt: pt.fr.R2_table[0])
    B = cached_property(lambda pt: pt.fr.B[0])
    # order-4 tables: R^i_k to second partials, R^{ i}_{j kl} to first
    R2 = cached_property(lambda pt: pt.fr.R2_table)
    R4 = cached_property(lambda pt: pt.fr.R4)
    # R^p_{ kl} = y^j R^{ p}_{j kl} and its first partials
    R3 = cached_property(lambda pt: _product("pjkl,j->pkl", pt.R4, pt.fr.y_table))
    # horizontal covariant derivatives, direction last: [i,j,k,l,m] = R^{ i}_{j kl|m}
    covR4 = cached_property(lambda pt: pt.fr.cov_h(pt.R4, ROLES4)[0])
    covB = cached_property(lambda pt: pt.fr.cov_h(pt.fr.B, ROLES4)[0])
    covR3 = cached_property(lambda pt: pt.fr.cov_h(pt.R3, ROLES4[:3])[0])
    covR2 = cached_property(lambda pt: pt.fr.cov_h(pt.R2[:2], ROLES4[:2])[0])
    weyl = cached_property(lambda pt: cv.weyl(pt.spray, pt.p, "direct"))
    eta = cached_property(lambda pt: pt.fr.rapcsak(pt.fr.r_scalar, 0.5))
    volumes = cached_property(lambda pt: [VolumeData(pt, dV) for dV in pt.run.volumes])

    def euler(self):
        G = np.array([carrier_value(g) for g in self.fr.G])
        N, Gm = self.fr.N_values, self.fr.Gamma_values
        return max(rel_residual(N @ self.y - 2 * G, G, N),
                   rel_residual(np.einsum("ijm,m->ij", Gm, self.y) - N, N, Gm))

    def berwald_symmetry(self):
        return max(0.0, *(rel_residual(self.B - self.B.transpose(perm), self.B)
                          for perm in ((0, 2, 1, 3), (0, 3, 2, 1), (0, 1, 3, 2))))

    def two_index_cross(self):
        R2v, R4 = self.R2[0], self.R4[0]
        return rel_residual(R2v - np.einsum("ijkl,j,l->ik", R4, self.y, self.y), R2v)

    def bianchi_first(self):
        R4 = self.R4[0]
        return rel_residual(R4 + R4.transpose(0, 2, 3, 1) + R4.transpose(0, 3, 1, 2), R4)

    def reconstruct(self):
        d2 = self.R2[2][..., self.n:, self.n:]      # [i,k,l,j] = d2R^i_k/dy^l dy^j
        rec = (np.einsum("iklj->ijkl", d2) - np.einsum("ilkj->ijkl", d2)) / 3.0
        return rel_residual(rec - self.R4[0], self.R4[0])

    def contract3(self):
        R4, d1 = self.R4[0], self.R2[1][..., self.n:]    # [i,k,l] = dR^i_k/dy^l
        rhs = (2.0 * np.einsum("ikj->ijk", d1) + d1) / 3.0
        return rel_residual(np.einsum("ijkl,l->ijk", R4, self.y) - rhs, R4, d1)

    def contract2(self):
        R4, d1 = self.R4[0], self.R2[1][..., self.n:]
        rhs = (d1 - np.einsum("ilk->ikl", d1)) / 3.0
        return rel_residual(np.einsum("ijkl,j->ikl", R4, self.y) - rhs, R4, d1)

    def bianchi_second(self):
        cov, Bv, R3v = self.covR4, self.fr.B[0], self.R3[0]
        term = cov + np.einsum("ijlmk->ijklm", cov) + np.einsum("ijmkl->ijklm", cov)
        coupling = (np.einsum("ijmp,pkl->ijklm", Bv, R3v)
                    + np.einsum("ijlp,pmk->ijklm", Bv, R3v)
                    + np.einsum("ijkp,plm->ijklm", Bv, R3v))
        return rel_residual(term + coupling, cov, coupling)

    def mixed_vertical(self):
        dR4, cov = self.R4[1][..., self.n:], self.covB
        rhs = np.einsum("ijmlk->ijklm", cov) - np.einsum("ijkml->ijklm", cov)
        return rel_residual(dR4 - rhs, dR4, cov)

    def berwald_vertical(self):
        dB = self.fr.B[1][..., self.n:]
        return rel_residual(dB - np.einsum("ijkml->ijklm", dB), dB)

    def bianchi_contracted(self):
        cov = self.covR3
        cyc = cov + np.einsum("plmk->pklm", cov) + np.einsum("pmkl->pklm", cov)
        return rel_residual(cyc, cov)

    def bianchi_contracted_y(self):
        cov2, cov3 = self.covR2, self.covR3
        lhs = (cov2 - np.einsum("imk->ikm", cov2)
               + np.einsum("imkl,l->ikm", cov3, self.y))
        return rel_residual(lhs, cov2, cov3)

    def ricci_trace(self):
        ric, Ric = self.fr.ric_jl, float(self.fr.ric[0])
        return max(rel_residual(ric - ric.T, ric),
                   rel_residual(float(self.y @ ric @ self.y) - Ric, ric))

    def versus_chi(self, route: np.ndarray):
        return rel_residual(route - self.chi, self.chi)

    def chi_cartan(self):
        from . import finsler       # loaded only for a spray with a metric
        route = finsler.chi_cartan(self.spray.metric, self.p)
        return rel_residual(route - self.chi, self.chi, self.scale)

    def chi_homogeneity(self):
        return max(0.0, *(rel_residual(cv.chi_definition(self.spray, self.p.scaled(s))
                                       - s * self.chi, self.chi)
                          for s in (0.5, 2.0)))

    def weyl_route(self):
        w2 = cv.weyl(self.spray, self.p, "via_chi")
        return rel_residual(self.weyl - w2, self.weyl, w2)

    def weyl_vertical_trace(self):
        # W^i_k = T^i_k + 3 chi_k y^i/(n+1) with its first partials
        fr, n = self.fr, self.n
        Wv, dW = plus_outer_y(fr.T, fr.chi, 3.0 / (n + 1), fr.y_table)
        div = np.einsum("mkm->k", dW[..., n:])       # dW^m_k/dy^m
        return rel_residual(np.abs(div).max(), Wv)

    def isotropic_four_index(self):
        fr, n, R4 = self.fr, self.n, self.R4[0]
        dRR = fr.r_scalar[2][n:, n:]                 # d2R/dy^l dy^j
        expect = 0.5 * (np.einsum("lj,ik->ijkl", dRR, np.eye(n))
                        - np.einsum("kj,il->ijkl", dRR, np.eye(n)))
        return rel_residual(R4 - expect, R4, dRR)


class VolumeData:
    """What the volume-form rows share at one (volume form, point), and
    their residuals too long for `ROWS`."""

    def __init__(self, pt: PointData, dV: pj.VolumeForm):
        self.pt, self.dV = pt, dV
        self.index, self.spray, self.p = pt.index, pt.spray, pt.p

    hat = cached_property(lambda v: pj.deform(v.spray, v.dV))
    s = cached_property(lambda v: pj.s_curvature(v.spray, v.dV, v.p))
    ricci = cached_property(lambda v: pj.projective_ricci(v.spray, v.dV, v.p))
    weyl_hat = cached_property(lambda v: pj.weyl_hat(v.spray, v.dV, v.p))
    chi_s = cached_property(lambda v: pj.chi_via_s(v.spray, v.dV, v.p))
    douglas = cached_property(lambda v: pj.douglas(v.spray, v.dV, v.p))

    def s_homogeneity(self):
        return max(0.0, *(abs(pj.s_curvature(self.spray, self.dV, self.p.scaled(s))
                              - s * self.s) / (1.0 + abs(self.s)) for s in (0.5, 2.0)))

    def hat_riemann(self):
        d = pj.hat_riemann(self.spray, self.dV, self.p, "direct")
        f = pj.hat_riemann(self.spray, self.dV, self.p, "formula")
        return rel_residual(d - f, d, f)

    def hat_ricci_contract(self):
        ric, y = self.ricci["ric_jl"], self.pt.y
        return rel_residual(float(y @ ric @ y) - self.ricci["ric"], ric)

    def hat_ricci_split(self):
        fr, n, ric = self.pt.fr, self.pt.n, self.ricci["ric_jl"]
        tvv = self.hat.tau(self.p)[2][n:, n:]
        expect = fr.ric_jl + (n - 1) / 2.0 * tvv - self.ricci["h_jl"]
        return rel_residual(ric - expect, ric, expect)

    def douglas_change(self):
        d0 = self.pt.volumes[0].douglas
        return rel_residual(self.douglas - d0, d0, self.douglas)

    def chi_ordering_gap(self):
        other = pj.chi_via_s(self.spray, self.dV, self.p, "horizontal-first")
        return rel_residual(self.chi_s - other, self.chi_s, self.pt.scale)


def _requires(*conditions):
    """A hypothesis: the first failing (predicate, note) pair makes a row n/a."""
    def hypothesis(run):
        for holds, note in conditions:
            if not holds(run):
                return False, note
        return True, ""
    return hypothesis


_ISOTROPIC = (lambda run: run.cls.isotropic,
              "hypothesis fails: spray is not of isotropic curvature")
_SCALAR = (lambda run: run.cls.scalar_curvature,
           "hypothesis fails: spray is not of scalar curvature")
_N_MINUS_2 = (lambda run: run.spray.n >= 3,
              "not applicable in dimension 2 (factor n-2 vanishes)")
_ISOTROPIC_N3 = _requires(_ISOTROPIC, _N_MINUS_2)


def _s_closed(run):
    res = pj.s_closed_residual(run.spray, run.points)
    note = (f"closedness residuals: hessian {res['vertical_hessian']:.2e}, "
            f"curl {res['curl']:.2e}")
    if max(res["vertical_hessian"], res["curl"]) <= S_CLOSED_TOL:
        return True, note
    return False, note + " (hypothesis fails: Pi is not closed)"


class RowSpec(Frozen):
    """One identity row.  `part` names the `SuiteRunner` method that fills
    it; `residual` maps a context (`SuiteRunner._contexts`) to a residual.
    `hypothesis` maps the runner to (applicable, note), or to None to leave
    the row out; without one the row always applies."""
    __slots__ = ("id", "part", "eq_tag", "tolerance", "residual", "statement",
                 "hypothesis")

    def __init__(self, id: str, part: str, eq_tag: str, tolerance: float,
                 residual: Callable, statement: str,
                 hypothesis: Callable | None = None):
        self._init(id, part, eq_tag, tolerance, residual, statement, hypothesis)


P, V = PointData, VolumeData
ROWS = (
    RowSpec("homogeneity", "homogeneity", "spray-degree-2", 1e-9,
            lambda pt: pt.spray.homogeneity_residual(pt.p),
            "G^i(x, s y) = s^2 G^i(x, y) for s in {0.5, 2, 3}"),
    RowSpec("euler-connection", "connection", "connection-euler", 1e-9, P.euler,
            "N^i_m y^m = 2 G^i and Gamma^i_jm y^m = N^i_j"),
    RowSpec("berwald-symmetry", "connection", "berwald-symmetric", 1e-10,
            P.berwald_symmetry, "B^{ i}_{j kl} is totally symmetric in j, k, l"),
    RowSpec("berwald-y-contraction", "connection", "berwald-contract", 1e-10,
            lambda pt: rel_residual(np.einsum("ijkl,j->ikl", pt.B, pt.y), pt.B),
            "y^j B^{ i}_{j kl} = 0"),
    RowSpec("bianchi-first", "four-index", "bianchi-1", 1e-8, P.bianchi_first,
            "R^{ i}_{j kl} + R^{ i}_{k lj} + R^{ i}_{l jk} = 0"),
    RowSpec("reconstruct-4from2", "four-index", "reconstruction", 1e-8, P.reconstruct,
            "R^{ i}_{j kl} = (1/3){d2R^i_k/dy^l dy^j - d2R^i_l/dy^k dy^j}"),
    RowSpec("contract-3idx", "four-index", "reconstruction-3", 1e-8, P.contract3,
            "R^{ i}_{j kl} y^l = (1/3){2 dR^i_k/dy^j + dR^i_j/dy^k}"),
    RowSpec("contract-2idx", "four-index", "reconstruction-2", 1e-8, P.contract2,
            "y^j R^{ i}_{j kl} = (1/3){dR^i_k/dy^l - dR^i_l/dy^k}"),
    RowSpec("two-index-cross", "four-index", "two-index-vs-four", 1e-8,
            P.two_index_cross, "direct R^i_k equals y^j R^{ i}_{j kl} y^l"),
    RowSpec("bianchi-second", "bianchi-second", "bianchi-2", 1e-7, P.bianchi_second,
            "cyclic sum of R^{ i}_{j kl|m} plus B-R coupling vanishes"),
    RowSpec("mixed-vertical", "bianchi-second", "bianchi-2-vertical", 1e-7,
            P.mixed_vertical, "dR^{ i}_{j kl}/dy^m = B^{ i}_{j ml|k} - B^{ i}_{j km|l}"),
    RowSpec("berwald-vertical-symmetry", "bianchi-second", "berwald-vertical", 1e-7,
            P.berwald_vertical, "dB^{ i}_{j kl}/dy^m is symmetric in l, m"),
    RowSpec("bianchi-contracted", "bianchi-second", "bianchi-contracted", 1e-7,
            P.bianchi_contracted, "R^i_{ kl|m} + R^i_{ lm|k} + R^i_{ mk|l} = 0"),
    RowSpec("bianchi-contracted-2", "bianchi-second", "bianchi-contracted-y", 1e-7,
            P.bianchi_contracted_y, "R^i_{ k|m} - R^i_{ m|k} + R^i_{ mk|l} y^l = 0"),
    RowSpec("ricci-trace", "bianchi-second", "ricci-contract", 1e-9, P.ricci_trace,
            "Ric_jl y^j y^l = R^m_m and Ric_jl = Ric_lj"),
    RowSpec("chi-route-trace", "chi", "chi-trace", 1e-8,
            lambda pt: pt.versus_chi(cv.chi_trace(pt.spray, pt.p)),
            "chi_k = -(1/2) R^{ m}_{m kl} y^l equals the definition"),
    RowSpec("chi-route-local", "chi", "chi-local", 1e-8,
            lambda pt: pt.versus_chi(cv.chi_local(pt.spray, pt.p)),
            "chi via the Pi-formula equals the definition"),
    RowSpec("chi-route-T", "chi", "chi-from-T", 1e-8,
            lambda pt: pt.versus_chi(cv.chi_from_t(pt.spray, pt.p)),
            "chi_k = -(1/3) dT^m_k/dy^m equals the definition"),
    RowSpec("chi-homogeneity", "chi", "chi-degree-1", 1e-8, P.chi_homogeneity,
            "chi_k(x, s y) = s chi_k(x, y) for s in {0.5, 2}"),
    RowSpec("chi-y-contraction", "chi", "chi-contract", 1e-9,
            lambda pt: rel_residual(float(pt.chi @ pt.y), pt.chi), "chi_k y^k = 0"),
    # only a spray induced by a Finsler metric has the mean-Cartan route
    RowSpec("chi-cartan-route", "chi", "chi-mean-cartan", 1e-6, P.chi_cartan,
            "the mean-Cartan route to chi equals the definition on the induced spray",
            lambda run: None if run.spray.metric is None else (True, "")),
    RowSpec("weyl-route", "weyl", "weyl-via-chi", 1e-8, P.weyl_route,
            "W^i_k = T^i_k + 3 chi_k y^i/(n+1) equals the direct Weyl"),
    RowSpec("weyl-vertical-trace", "weyl", "weyl-trace", 1e-8, P.weyl_vertical_trace,
            "dW^m_k/dy^m = 0"),
    RowSpec("t-trace", "weyl", "t-traceless", 1e-9,
            lambda pt: rel_residual(np.trace(pt.fr.T[0]), pt.fr.T[0]), "T^m_m = 0"),
    RowSpec("isotropic-4idx", "isotropic", "isotropic-four-index", 1e-7,
            P.isotropic_four_index, "isotropic curvature forces R^{ i}_{j kl} = "
            "(1/2){R_{.l.j} d^i_k - R_{.k.j} d^i_l}", _requires(_ISOTROPIC)),
    RowSpec("isotropic-grad", "isotropic", "isotropic-gradient", 1e-7,
            lambda pt: rel_residual((pt.n - 2) * 2.0 * pt.eta, pt.R2[0]),
            "(n-2)(R_{.l|m} y^m - 2 R_{|l}) = 0 for isotropic sprays", _ISOTROPIC_N3),
    RowSpec("eta-isotropic", "isotropic", "eta-vanishes", 1e-7,
            lambda pt: rel_residual(pt.eta, pt.R2[0]),
            "eta = (1/2) R_{.k|m} y^m - R_{|k} = 0 for isotropic sprays, n >= 3",
            _ISOTROPIC_N3),
    RowSpec("dual-equivalence-R", "isotropic", "dual-R", 1e-7,
            lambda pt: rel_residual(pt.eta, pt.R2[0]),
            "the curvature scalar R is dually equivalent to G when isotropic, n >= 3",
            _ISOTROPIC_N3),
    RowSpec("s-closed-chi", "s-closed", "s-closed-implies-chi", 1e-7,
            lambda pt: rel_residual(pt.chi, pt.scale),
            "an S-closed spray (Pi a closed 1-form) has chi = 0", _s_closed),
    RowSpec("s-homogeneity", "volume", "s-degree-1", 1e-9, V.s_homogeneity,
            "S(x, s y) = s S(x, y)"),
    RowSpec("deformed-s-vanishes", "volume", "deformation-s-zero", 1e-9,
            lambda v: abs(pj.s_curvature(v.hat, v.dV, v.p)) / (1.0 + abs(v.s)),
            "the S-curvature of the deformed spray vanishes"),
    RowSpec("deformed-chi-vanishes", "volume", "deformation-chi-zero", 1e-7,
            lambda v: rel_residual(cv.chi_definition(v.hat, v.p), v.pt.scale),
            "the deformed spray has chi = 0 for every volume form"),
    RowSpec("hat-riemann-route", "volume", "hat-riemann-formula", 1e-7, V.hat_riemann,
            "direct curvature of the deformed spray equals the closed formula in "
            "tau and chi"),
    RowSpec("projective-ricci-contract", "volume", "hat-ricci-contract", 1e-8,
            V.hat_ricci_contract, "Ric_hat_jl y^j y^l = Ric + (n-1) tau"),
    RowSpec("projective-ricci-decomposition", "volume", "hat-ricci-split", 1e-7,
            V.hat_ricci_split, "Ric_hat_jl = Ric_jl + (n-1)/2 tau_{.j.l} - H_jl"),
    RowSpec("weylhat-equals-weyl", "volume", "hat-T-is-weyl", 1e-8,
            lambda v: rel_residual(v.weyl_hat - v.pt.weyl, v.pt.weyl, v.weyl_hat),
            "the trace-free curvature of the deformed spray equals the Weyl "
            "curvature of the base spray"),
    RowSpec("douglas-volume-independent", "douglas", "douglas-invariant", 1e-8,
            V.douglas_change, "the Berwald curvature of the deformed spray does not "
            "depend on the volume form"),
    RowSpec("projective-invariance", "volume", "deformation-projective", 1e-9,
            lambda v: pj.projective_invariance_check(v.spray, v.pt.run.shifted, v.dV,
                                                     [v.p]),
            "G and G + P y deform to the same spray"),
    RowSpec("chi-route-volume", "volume", "chi-via-s", 1e-8,
            lambda v: rel_residual(v.chi_s - v.pt.chi, v.pt.chi, v.pt.scale),
            "chi_k = (1/2){S_{.k|m} y^m - S_{|k}} for every volume form"),
    RowSpec("chi-ordering-gap", "volume", "chi-s-orderings", 1e-10,
            V.chi_ordering_gap, "both derivative orderings of the S-route agree"),
    RowSpec("isotropic-hat", "volume", "hat-isotropic", 1e-7,
            lambda v: rel_residual(v.weyl_hat, v.pt.scale),
            "scalar-curvature sprays deform to isotropic sprays", _requires(_SCALAR)),
    RowSpec("eta-hat-vanishes", "volume", "hat-eta-zero", 1e-7,
            lambda v: rel_residual(pj.eta_hat(v.spray, v.dV, v.p), v.pt.scale),
            "eta of the deformed spray vanishes for scalar-curvature sprays, n >= 3",
            _requires(_SCALAR, (lambda run: run.spray.n >= 3,
                                "not applicable in dimension 2"))),
    RowSpec("rapcsak-of-S", "volume", "projective-metric-residual", 1e-7,
            lambda v: rel_residual(2.0 * v.chi_s, v.pt.scale),
            "with chi = 0, S_{.k|m} y^m - S_{|k} = 0 for every volume form",
            _requires((lambda run: run.cls.chi_zero,
                       "hypothesis fails: chi does not vanish on the sample"))),
)


def _part(*parts):
    """A suite part: a `SuiteRunner` method that fills the rows of `parts`."""
    return lambda run: run._fill(*parts)


class SuiteRunner:
    """Runs the identity suite, or some of its groups, for one spray over a
    point sample."""

    # suite group -> the part methods that fill it
    GROUPS = {"base": ("_homogeneity", "_connection_rows"),
              "four-index": ("_four_index_rows",), "chi": ("_chi_rows",),
              "weyl": ("_weyl_t_rows",), "isotropic": ("_isotropic_rows",),
              "s-closed": ("_s_closed_rows",), "volume": ("_volume_rows",)}

    def __init__(self, spray: SprayChart, points, volumes=None,
                 tolerances=None):
        self.spray = spray
        self.points = list(points)
        self.volumes = volumes if volumes is not None else [
            pj.VolumeForm(s, spray.n) for s in DEFAULT_SIGMAS]
        self.tolerances = dict(tolerances or {})
        self.data = [PointData(self, i) for i in range(len(self.points))]
        self.rows = []

    # the classification flags that the hypotheses read and the report echoes
    cls = cached_property(lambda run: cv.classify(run.spray, run.points))
    # G + P y, projectively related to G, for the projective-invariance row
    shifted = cached_property(
        lambda run: pj.with_projective_factor(run.spray, "0.3*y1 + 0.1*y2"))

    def run(self, groups=None):
        groups = set(self.GROUPS if groups is None else groups)
        unknown = groups - set(self.GROUPS)
        if unknown:
            raise ValueError(f"unknown suite groups {sorted(unknown)}")
        for pt in self.data:    # the top order first: lower orders read it
            pt.fr
            for dV in self.volumes:     # its coefficients read S at order 4
                pj.deform(self.spray, dV).frame(pt.p, 3)
        for group, methods in self.GROUPS.items():
            for name in methods if group in groups else ():
                getattr(self, name)()
        return self.rows

    def _fill(self, *parts):
        """Append the rows of `parts` and evaluate the applicable ones."""
        for spec in (s for s in ROWS if s.part in parts):
            hyp = spec.hypothesis(self) if spec.hypothesis else (True, "")
            if hyp is None:
                continue
            row = Row(spec.id, spec.eq_tag, spec.statement,
                      self.tolerances.get(spec.id, spec.tolerance),
                      applicable=hyp[0], note=hyp[1])
            self.rows.append(row)
            for ctx in self._contexts(spec.part) if row.applicable else ():
                row.add(spec.residual(ctx), ctx.index)

    def _contexts(self, part):
        # the order fixes each row's mean and the point of a tied maximum
        if part == "volume":        # the volume forms outermost
            return [pt.volumes[k] for k in range(len(self.volumes)) for pt in self.data]
        if part == "douglas":       # per point, each later volume form vs the first
            return [v for pt in self.data for v in pt.volumes[1:]]
        return self.data

    # the suite parts: one method each, timed by the benchmark tracer
    _homogeneity = _part("homogeneity")
    _connection_rows = _part("connection")
    _bianchi_second_rows = _part("bianchi-second")
    _chi_rows = _part("chi")
    _weyl_t_rows = _part("weyl")
    _isotropic_rows = _part("isotropic")
    _s_closed_rows = _part("s-closed")
    _volume_rows = _part("volume", "douglas")

    def _four_index_rows(self):
        self._fill("four-index")
        self._bianchi_second_rows()


def run_suite(spray, points, volumes=None, tolerances=None, groups=None):
    """Run the identity suite (or selected groups); returns the Row objects."""
    return SuiteRunner(spray, points, volumes, tolerances).run(groups)
