"""The identity-residual suite: every asserted identity as a scored row.

Each row evaluates one identity over the sampled points (and volume forms
where relevant), recording the worst relative residual, the point where it
occurred, and pass/fail against the row's tolerance.  Residuals are always
scaled by 1 + the largest component magnitude of the tensors entering the
identity.  Rows whose hypotheses fail on the sample (isotropy, closedness,
dimension bounds) are marked not-applicable instead of passing vacuously.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import curvature as cv
from . import projective as pj
from .spray_core import (SprayChart, _obj, carrier_value, rel_residual,
                         tensor_values)

# default tolerances per row id; overridable through RunConfig
TOLERANCES = {
    "homogeneity": 1e-9,
    "euler-connection": 1e-9,
    "berwald-symmetry": 1e-10,
    "berwald-y-contraction": 1e-10,
    "bianchi-first": 1e-8,
    "reconstruct-4from2": 1e-8,
    "contract-3idx": 1e-8,
    "contract-2idx": 1e-8,
    "two-index-cross": 1e-8,
    "bianchi-second": 1e-7,
    "mixed-vertical": 1e-7,
    "berwald-vertical-symmetry": 1e-7,
    "bianchi-contracted": 1e-7,
    "bianchi-contracted-2": 1e-7,
    "ricci-trace": 1e-9,
    "chi-route-trace": 1e-8,
    "chi-route-local": 1e-8,
    "chi-route-T": 1e-8,
    "chi-route-volume": 1e-8,
    "chi-ordering-gap": 1e-10,
    "chi-homogeneity": 1e-8,
    "chi-y-contraction": 1e-9,
    "weyl-route": 1e-8,
    "weyl-vertical-trace": 1e-8,
    "t-trace": 1e-9,
    "isotropic-4idx": 1e-7,
    "isotropic-grad": 1e-7,
    "eta-isotropic": 1e-7,
    "dual-equivalence-R": 1e-7,
    "s-closed-chi": 1e-7,
    "s-homogeneity": 1e-9,
    "deformed-s-vanishes": 1e-9,
    "deformed-chi-vanishes": 1e-7,
    "hat-riemann-route": 1e-7,
    "projective-ricci-contract": 1e-8,
    "projective-ricci-decomposition": 1e-7,
    "weylhat-equals-weyl": 1e-8,
    "douglas-volume-independent": 1e-8,
    "projective-invariance": 1e-9,
    "isotropic-hat": 1e-7,
    "eta-hat-vanishes": 1e-7,
    "rapcsak-of-S": 1e-7,
    "randers-closed-form": 1e-8,
    "randers-s-vanishes": 1e-9,
    "chi-cartan-route": 1e-6,
}

FLAG_TOL = 1e-6          # classification flags (looser than identity rows)
S_CLOSED_TOL = 1e-8      # hypothesis threshold for the closedness test


@dataclass
class Row:
    id: str
    eq_tag: str
    statement: str
    tolerance: float
    residuals: list = field(default_factory=list)
    point_ids: list = field(default_factory=list)
    applicable: bool = True
    note: str = ""

    def add(self, value: float, point=None):
        self.residuals.append(float(value))
        self.point_ids.append(point)

    @property
    def max_residual(self):
        return max(self.residuals) if self.residuals else None

    @property
    def mean_residual(self):
        return sum(self.residuals) / len(self.residuals) if self.residuals else None

    @property
    def argmax_point(self):
        if not self.residuals:
            return None
        return self.point_ids[int(np.argmax(self.residuals))]

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


class SuiteRunner:
    """Runs the identity suite for one spray over a point sample.

    When the spray was induced by a Finsler metric (`spray.metric`), the
    mean-Cartan route row for chi is added (its looser tolerance reflects
    the order-5 jet chain with a matrix inverse inside).
    """

    def __init__(self, spray: SprayChart, points, volumes=None,
                 tolerances=None, deep: bool = True):
        self.spray = spray
        self.points = list(points)
        self.volumes = volumes if volumes is not None else [
            pj.VolumeForm.constant(spray.n),
            pj.VolumeForm("exp(x1)", spray.n),
            pj.VolumeForm("1+0.5*x1^2", spray.n),
        ]
        self.tol = dict(TOLERANCES)
        if tolerances:
            self.tol.update(tolerances)
        self.deep = deep
        self.rows = []

    def row(self, rid: str, eq_tag: str, statement: str) -> Row:
        r = Row(rid, eq_tag, statement, self.tol[rid])
        self.rows.append(r)
        return r

    # -- spray-level identities --------------------------------------------------

    GROUPS = ("base", "four-index", "chi", "weyl", "isotropic", "s-closed",
              "volume")

    def run(self, groups=None):
        groups = set(self.GROUPS if groups is None else groups)
        unknown = groups - set(self.GROUPS)
        if unknown:
            raise ValueError(f"unknown suite groups {sorted(unknown)}")
        if "base" in groups:
            self._homogeneity()
            self._connection_rows()
        if "four-index" in groups:
            self._four_index_rows()
        if "chi" in groups:
            self._chi_rows()
        if "weyl" in groups:
            self._weyl_t_rows()
        if groups & {"isotropic", "s-closed", "volume"}:
            cls = cv.classify(self.spray, self.points, FLAG_TOL)
            if "isotropic" in groups:
                self._isotropic_rows(cls)
            if "s-closed" in groups:
                self._s_closed_rows(cls)
            if "volume" in groups:
                self._volume_rows(cls)
        return self.rows

    def _homogeneity(self):
        r = self.row("homogeneity", "spray-degree-2",
                     "G^i(x, s y) = s^2 G^i(x, y) for s in {0.5, 2, 3}")
        for pi, p in enumerate(self.points):
            r.add(self.spray.homogeneity_residual(p), pi)

    def _connection_rows(self):
        r_euler = self.row("euler-connection", "connection-euler",
                           "N^i_m y^m = 2 G^i and Gamma^i_jm y^m = N^i_j")
        r_bsym = self.row("berwald-symmetry", "berwald-symmetric",
                          "B^{ i}_{j kl} is totally symmetric in j, k, l")
        r_bcon = self.row("berwald-y-contraction", "berwald-contract",
                          "y^j B^{ i}_{j kl} = 0")
        n = self.spray.n
        for pi, p in enumerate(self.points):
            fr = self.spray.frame(p, 3)
            y = np.array(p.y)
            G = np.array([carrier_value(g) for g in fr.G])
            N, Gm = fr.N_values, fr.Gamma_values
            e1 = rel_residual(N @ y - 2 * G, G, N)
            e2 = rel_residual(np.einsum("ijm,m->ij", Gm, y) - N, N, Gm)
            r_euler.add(max(e1, e2), pi)
            B = tensor_values(fr.B)
            worst = 0.0
            for perm in ((0, 2, 1, 3), (0, 3, 2, 1), (0, 1, 3, 2)):
                worst = max(worst, rel_residual(B - B.transpose(perm), B))
            r_bsym.add(worst, pi)
            r_bcon.add(rel_residual(np.einsum("ijkl,j->ikl", B, y), B), pi)

    def _four_index_rows(self):
        r_b1 = self.row("bianchi-first", "bianchi-1",
                        "R^{ i}_{j kl} + R^{ i}_{k lj} + R^{ i}_{l jk} = 0")
        r_rec = self.row("reconstruct-4from2", "reconstruction",
                         "R^{ i}_{j kl} = (1/3){d2R^i_k/dy^l dy^j - d2R^i_l/dy^k dy^j}")
        r_c3 = self.row("contract-3idx", "reconstruction-3",
                        "R^{ i}_{j kl} y^l = (1/3){2 dR^i_k/dy^j + dR^i_j/dy^k}")
        r_c2 = self.row("contract-2idx", "reconstruction-2",
                        "y^j R^{ i}_{j kl} = (1/3){dR^i_k/dy^l - dR^i_l/dy^k}")
        r_x = self.row("two-index-cross", "two-index-vs-four",
                       "direct R^i_k equals y^j R^{ i}_{j kl} y^l")
        n = self.spray.n
        for pi, p in enumerate(self.points):
            fr = self.spray.frame(p, 4)
            y = np.array(p.y)
            R4 = tensor_values(fr.R4)
            cyc = R4 + R4.transpose(0, 2, 3, 1) + R4.transpose(0, 3, 1, 2)
            r_b1.add(rel_residual(cyc, R4), pi)
            # d1v[i,k,l] = dR^i_k/dy^l; d2v[i,k,l,j] = d2 R^i_k / dy^l dy^j
            R2v, d1, d2 = fr.table(fr.R2, 2)
            d1v, d2v = d1[..., n:], d2[..., n:, n:]
            rec = (np.einsum("iklj->ijkl", d2v) - np.einsum("ilkj->ijkl", d2v)) / 3.0
            r_rec.add(rel_residual(rec - R4, R4), pi)
            lhs3 = np.einsum("ijkl,l->ijk", R4, y)
            rhs3 = (2.0 * np.einsum("ikj->ijk", d1v) + d1v) / 3.0
            r_c3.add(rel_residual(lhs3 - rhs3, R4, d1v), pi)
            lhs2 = np.einsum("ijkl,j->ikl", R4, y)
            rhs2 = (d1v - np.einsum("ilk->ikl", d1v)) / 3.0
            r_c2.add(rel_residual(lhs2 - rhs2, R4, d1v), pi)
            contracted = np.einsum("ijkl,j,l->ik", R4, y, y)
            r_x.add(rel_residual(R2v - contracted, R2v), pi)
        if self.deep:
            self._bianchi_second_rows()

    def _bianchi_second_rows(self):
        r_b2 = self.row("bianchi-second", "bianchi-2",
                        "cyclic sum of R^{ i}_{j kl|m} plus B-R coupling vanishes")
        r_mx = self.row("mixed-vertical", "bianchi-2-vertical",
                        "dR^{ i}_{j kl}/dy^m = B^{ i}_{j ml|k} - B^{ i}_{j km|l}")
        r_bv = self.row("berwald-vertical-symmetry", "berwald-vertical",
                        "dB^{ i}_{j kl}/dy^m is symmetric in l, m")
        r_b4 = self.row("bianchi-contracted", "bianchi-contracted",
                        "R^i_{ kl|m} + R^i_{ lm|k} + R^i_{ mk|l} = 0")
        r_b5 = self.row("bianchi-contracted-2", "bianchi-contracted-y",
                        "R^i_{ k|m} - R^i_{ m|k} + R^i_{ mk|l} y^l = 0")
        r_ric = self.row("ricci-trace", "ricci-contract",
                         "Ric_jl y^j y^l = R^m_m and Ric_jl = Ric_lj")
        n = self.spray.n
        roles4 = ("up", "down", "down", "down")
        for pi, p in enumerate(self.points):
            fr = self.spray.frame(p, 4)
            y = np.array(p.y)
            R4v, R4g = fr.table(fr.R4, 1)
            Bv, Bg = fr.table(fr.B, 1)
            # R3[p,k,l] = R^p_{ kl} = y^j R^{ p}_{j kl}, partials by the product rule
            R3v = np.einsum("pjkl,j->pkl", R4v, y)
            R3g = np.einsum("pjkla,j->pkla", R4g, y)
            R3g[..., n:] += np.einsum("pjkl->pklj", R4v)
            # covR4v[i,j,k,l,m] = R^{ i}_{j kl|m}
            covR4v = fr.cov_h_values(R4v, R4g, roles4)
            covBv = fr.cov_h_values(Bv, Bg, roles4)
            term = (covR4v
                    + np.einsum("ijlmk->ijklm", covR4v)
                    + np.einsum("ijmkl->ijklm", covR4v))
            coupling = (np.einsum("ijmp,pkl->ijklm", Bv, R3v)
                        + np.einsum("ijlp,pmk->ijklm", Bv, R3v)
                        + np.einsum("ijkp,plm->ijklm", Bv, R3v))
            r_b2.add(rel_residual(term + coupling, covR4v, coupling), pi)
            # vertical derivative of R4 vs covariant B difference
            dR4, dB = R4g[..., n:], Bg[..., n:]
            rhs = (np.einsum("ijmlk->ijklm", covBv)
                   - np.einsum("ijkml->ijklm", covBv))
            r_mx.add(rel_residual(dR4 - rhs, dR4, covBv), pi)
            r_bv.add(rel_residual(dB - np.einsum("ijkml->ijklm", dB), dB), pi)
            # contracted forms: covR3[p,k,l,m] = R^p_{ kl|m}
            covR3 = fr.cov_h_values(R3v, R3g, roles4[:3])
            cyc = (covR3 + np.einsum("plmk->pklm", covR3)
                   + np.einsum("pmkl->pklm", covR3))
            r_b4.add(rel_residual(cyc, covR3), pi)
            covR2 = fr.cov_h_values(*fr.table(fr.R2, 1), roles4[:2])
            lhs5 = (covR2 - np.einsum("imk->ikm", covR2)
                    + np.einsum("imkl,l->ikm", covR3, y))
            r_b5.add(rel_residual(lhs5, covR2, covR3), pi)
            ricv = tensor_values(fr.ric_jl)
            e = rel_residual(ricv - ricv.T, ricv)
            e = max(e, rel_residual(float(y @ ricv @ y) - carrier_value(fr.ric),
                                    ricv))
            r_ric.add(e, pi)

    def _chi_rows(self):
        r_tr = self.row("chi-route-trace", "chi-trace",
                        "chi_k = -(1/2) R^{ m}_{m kl} y^l equals the definition")
        r_lo = self.row("chi-route-local", "chi-local",
                        "chi via the Pi-formula equals the definition")
        r_t = self.row("chi-route-T", "chi-from-T",
                       "chi_k = -(1/3) dT^m_k/dy^m equals the definition")
        r_h = self.row("chi-homogeneity", "chi-degree-1",
                       "chi_k(x, s y) = s chi_k(x, y) for s in {0.5, 2}")
        r_y = self.row("chi-y-contraction", "chi-contract",
                       "chi_k y^k = 0")
        metric = self.spray.metric
        r_ca = None
        if metric is not None:
            r_ca = self.row("chi-cartan-route", "chi-mean-cartan",
                            "the mean-Cartan route to chi equals the "
                            "definition on the induced spray")
        for pi, p in enumerate(self.points):
            base = cv.chi_definition(self.spray, p).components
            r_tr.add(rel_residual(cv.chi_trace(self.spray, p).components - base, base), pi)
            r_lo.add(rel_residual(cv.chi_local(self.spray, p).components - base, base), pi)
            r_t.add(rel_residual(cv.chi_from_t(self.spray, p).components - base, base), pi)
            worst = 0.0
            for s in (0.5, 2.0):
                scl = cv.chi_definition(self.spray, p.scaled(s)).components
                worst = max(worst, rel_residual(scl - s * base, base))
            r_h.add(worst, pi)
            r_y.add(rel_residual(float(base @ np.array(p.y)), base), pi)
            if r_ca is not None:
                from . import finsler as fl
                scale = tensor_values(self.spray.frame(p, 3).R2)
                cart = fl.chi_cartan(metric, p).components
                r_ca.add(rel_residual(cart - base, base, scale), pi)

    def _weyl_t_rows(self):
        r_w = self.row("weyl-route", "weyl-via-chi",
                       "W^i_k = T^i_k + 3 chi_k y^i/(n+1) equals the direct Weyl")
        r_wt = self.row("weyl-vertical-trace", "weyl-trace",
                        "dW^m_k/dy^m = 0")
        r_tt = self.row("t-trace", "t-traceless", "T^m_m = 0")
        n = self.spray.n
        for pi, p in enumerate(self.points):
            w1 = cv.weyl(self.spray, p, "direct").components
            w2 = cv.weyl(self.spray, p, "via_chi").components
            r_w.add(rel_residual(w1 - w2, w1, w2), pi)
            # vertical trace of W needs W as jets: assemble from jets directly
            fr = self.spray.frame(p, 4)
            T = cv.t_jets(fr)
            chi = cv.chi_jets(fr)
            Wj = _obj((n, n))
            for i, k in itertools.product(range(n), repeat=2):
                Wj[i, k] = T[i, k] + (3.0 / (n + 1)) * (chi[k] * fr.yj[i])
            Wv, dW = fr.table(Wj, 1)
            div = np.einsum("mkm->k", dW[..., n:])       # dW^m_k/dy^m
            r_wt.add(rel_residual(np.abs(div).max(), Wv), pi)
            Tv = tensor_values(cv.t_jets(self.spray.frame(p, 3)))
            r_tt.add(rel_residual(np.trace(Tv), Tv), pi)

    def _isotropic_rows(self, cls):
        n = self.spray.n
        r4 = self.row("isotropic-4idx", "isotropic-four-index",
                      "isotropic curvature forces R^{ i}_{j kl} = "
                      "(1/2){R_{.l.j} d^i_k - R_{.k.j} d^i_l}")
        rg = self.row("isotropic-grad", "isotropic-gradient",
                      "(n-2)(R_{.l|m} y^m - 2 R_{|l}) = 0 for isotropic sprays")
        re = self.row("eta-isotropic", "eta-vanishes",
                      "eta = (1/2) R_{.k|m} y^m - R_{|k} = 0 for isotropic sprays, n >= 3")
        rd = self.row("dual-equivalence-R", "dual-R",
                      "the curvature scalar R is dually equivalent to G when "
                      "isotropic, n >= 3")
        if not cls.isotropic:
            for r in (r4, rg, re, rd):
                r.applicable = False
                r.note = "hypothesis fails: spray is not of isotropic curvature"
            return
        if n < 3:
            for r in (rg, re, rd):
                r.applicable = False
                r.note = "not applicable in dimension 2 (factor n-2 vanishes)"
        for pi, p in enumerate(self.points):
            fr = self.spray.frame(p, 4)
            R4v = tensor_values(fr.R4)
            R = fr.r_scalar
            dRR = fr.table(R, 2)[2][n:, n:]     # dRR[l, j] = d2R/dy^l dy^j
            expect = 0.5 * (np.einsum("lj,ik->ijkl", dRR, np.eye(n))
                            - np.einsum("kj,il->ijkl", dRR, np.eye(n)))
            r4.add(rel_residual(R4v - expect, R4v, dRR), pi)
            if n >= 3:
                etav = fr.rapcsak(R, 0.5)
                scale = tensor_values(fr.R2)
                rg.add(rel_residual((n - 2) * 2.0 * etav, scale), pi)
                re.add(rel_residual(etav, scale), pi)
                rd.add(rel_residual(etav, scale), pi)

    def _s_closed_rows(self, cls):
        res = pj.s_closed_residual(self.spray, self.points)
        closed = max(res["vertical_hessian"], res["curl"]) <= S_CLOSED_TOL
        r = self.row("s-closed-chi", "s-closed-implies-chi",
                     "an S-closed spray (Pi a closed 1-form) has chi = 0")
        r.note = (f"closedness residuals: hessian {res['vertical_hessian']:.2e}, "
                  f"curl {res['curl']:.2e}")
        if not closed:
            r.applicable = False
            r.note += " (hypothesis fails: Pi is not closed)"
            return
        for pi, p in enumerate(self.points):
            chi = cv.chi_definition(self.spray, p).components
            scale = tensor_values(self.spray.frame(p, 3).R2)
            r.add(rel_residual(chi, scale), pi)

    # -- volume-form rows ---------------------------------------------------------

    def _volume_rows(self, cls):
        n = self.spray.n
        r_sh = self.row("s-homogeneity", "s-degree-1",
                        "S(x, s y) = s S(x, y)")
        r_s0 = self.row("deformed-s-vanishes", "deformation-s-zero",
                        "the S-curvature of the deformed spray vanishes")
        r_c0 = self.row("deformed-chi-vanishes", "deformation-chi-zero",
                        "the deformed spray has chi = 0 for every volume form")
        r_hr = self.row("hat-riemann-route", "hat-riemann-formula",
                        "direct curvature of the deformed spray equals the "
                        "closed formula in tau and chi")
        r_pc = self.row("projective-ricci-contract", "hat-ricci-contract",
                        "Ric_hat_jl y^j y^l = Ric + (n-1) tau")
        r_pd = self.row("projective-ricci-decomposition", "hat-ricci-split",
                        "Ric_hat_jl = Ric_jl + (n-1)/2 tau_{.j.l} - H_jl")
        r_wh = self.row("weylhat-equals-weyl", "hat-T-is-weyl",
                        "the trace-free curvature of the deformed spray equals "
                        "the Weyl curvature of the base spray")
        r_dg = self.row("douglas-volume-independent", "douglas-invariant",
                        "the Berwald curvature of the deformed spray does not "
                        "depend on the volume form")
        r_pi = self.row("projective-invariance", "deformation-projective",
                        "G and G + P y deform to the same spray")
        r_cs = self.row("chi-route-volume", "chi-via-s",
                        "chi_k = (1/2){S_{.k|m} y^m - S_{|k}} for every volume form")
        r_og = self.row("chi-ordering-gap", "chi-s-orderings",
                        "both derivative orderings of the S-route agree")
        r_ih = self.row("isotropic-hat", "hat-isotropic",
                        "scalar-curvature sprays deform to isotropic sprays")
        r_eh = self.row("eta-hat-vanishes", "hat-eta-zero",
                        "eta of the deformed spray vanishes for scalar-curvature "
                        "sprays, n >= 3")
        r_rs = self.row("rapcsak-of-S", "projective-metric-residual",
                        "with chi = 0, S_{.k|m} y^m - S_{|k} = 0 for every "
                        "volume form")
        if not cls.scalar_curvature:
            r_ih.applicable = False
            r_eh.applicable = False
            note = "hypothesis fails: spray is not of scalar curvature"
            r_ih.note = note
            r_eh.note = note
        elif n < 3:
            r_eh.applicable = False
            r_eh.note = "not applicable in dimension 2"
        if not cls.chi_zero:
            r_rs.applicable = False
            r_rs.note = "hypothesis fails: chi does not vanish on the sample"

        P = "0.3*y1 + 0.1*y2"
        shifted = pj.with_projective_factor(self.spray, P)
        for dV in self.volumes:
            for pi, p in enumerate(self.points):
                r_pi.add(pj.projective_invariance_check(self.spray, shifted,
                                                        dV, [p]), pi)
                base_chi = cv.chi_definition(self.spray, p).components
                scaleR = tensor_values(self.spray.frame(p, 3).R2)
                s_val = pj.s_curvature(self.spray, dV, p)
                worst = 0.0
                for s in (0.5, 2.0):
                    ss = pj.s_curvature(self.spray, dV, p.scaled(s))
                    worst = max(worst, abs(ss - s * s_val) / (1.0 + abs(s_val)))
                r_sh.add(worst, pi)
                hat = pj.deform(self.spray, dV)
                r_s0.add(abs(pj.s_curvature(hat, dV, p)) / (1.0 + abs(s_val)), pi)
                chi_hat = cv.chi_definition(hat, p).components
                r_c0.add(rel_residual(chi_hat, scaleR), pi)
                d = pj.hat_riemann(self.spray, dV, p, "direct").components
                f = pj.hat_riemann(self.spray, dV, p, "formula").components
                r_hr.add(rel_residual(d - f, d, f), pi)
                pr = pj.projective_ricci(self.spray, dV, p)
                y = np.array(p.y)
                r_pc.add(rel_residual(
                    float(y @ pr["ric_jl"].components @ y) - pr["ric"],
                    pr["ric_jl"].components), pi)
                fr = self.spray.frame(p, 4)
                tvv = fr.table(pj.tau_jet(fr, dV), 2)[2][n:, n:]
                ric_base = tensor_values(fr.ric_jl)
                expect = ric_base + (n - 1) / 2.0 * tvv - pr["h_jl"].components
                r_pd.add(rel_residual(pr["ric_jl"].components - expect,
                                      pr["ric_jl"].components, expect), pi)
                w = cv.weyl(self.spray, p, "direct").components
                th = pj.weyl_hat(self.spray, dV, p).components
                r_wh.add(rel_residual(th - w, w, th), pi)
                sroute = pj.chi_via_s(self.spray, dV, p, "vertical-first").components
                r_cs.add(rel_residual(sroute - base_chi, base_chi, scaleR), pi)
                other = pj.chi_via_s(self.spray, dV, p, "horizontal-first").components
                r_og.add(rel_residual(sroute - other, sroute, scaleR), pi)
                if r_ih.applicable:
                    r_ih.add(rel_residual(th, scaleR), pi)
                if r_eh.applicable:
                    ehat = pj.eta_hat(self.spray, dV, p).components
                    r_eh.add(rel_residual(ehat, scaleR), pi)
                if r_rs.applicable:
                    r_rs.add(rel_residual(2.0 * sroute, scaleR), pi)
        for pi, p in enumerate(self.points):
            d0 = pj.douglas(self.spray, self.volumes[0], p).components
            for dV in self.volumes[1:]:
                d1 = pj.douglas(self.spray, dV, p).components
                r_dg.add(rel_residual(d1 - d0, d0, d1), pi)


def run_suite(spray, points, volumes=None, tolerances=None, deep=True,
              groups=None):
    """Run the identity suite (or selected groups); returns the Row objects."""
    return SuiteRunner(spray, points, volumes, tolerances, deep).run(groups)
