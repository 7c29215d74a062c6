"""The identity-residual suite: every asserted identity as a scored row.

`ROWS` declares each row once, in report order.  The suite runs on blocks
of sample points (`point_blocks` at order 4): a `Block` stacks its points'
frames into one `Frame.block`, whose tables carry a leading point axis, and
a `VolumeBlock` does so for the deformed spray's frames of each volume form.
A row's residual function maps a block to one residual per point, an array
[point] (relative: scaled by 1 + the largest component magnitude of the
tensors entering the identity, `rel_residual(..., lead=1)`), and reads the
values that the block shares, each computed once.  A row keeps every
residual with its point, in sample order with the volume forms outermost,
and reports the worst.  Rows whose hypotheses fail on the sample (isotropy,
closedness, dimension bounds) are not applicable instead of passing
vacuously.
"""

from __future__ import annotations

from functools import cached_property, reduce
from typing import Callable

import numpy as np

from . import curvature as cv
from . import projective as pj
from .projective import DEFAULT_SIGMAS
from .records import Frozen, Record
from .spray_core import (Frame, SprayChart, _product, plus_outer_y, point_blocks,
                         rel_residual)

S_CLOSED_TOL = 1e-8      # hypothesis threshold for the closedness test
ROLES4 = ("up", "down", "down", "down")
SCALES = (0.5, 2.0)      # s in the degree-1 rows: chi(x, s y) and S(x, s y)


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

    def extend(self, values, points: list):
        """Add a block's residuals [point, ...], in C order, each with its point."""
        for point, vals in zip(points, np.reshape(values, (len(points), -1)).tolist()):
            for v in vals:
                self.add(v, point)

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


def _worst(*residuals):
    """The elementwise maximum of residual arrays: np.maximum, unlike max,
    keeps a NaN wherever it sits."""
    return reduce(np.maximum, residuals)


class Block:
    """What the rows share on one block of sample points, each value
    computed once on first use, and the residuals of the rows too long for
    `ROWS`, each an array [point]."""

    def __init__(self, run: "SuiteRunner", indices: list):
        self.run, self.indices, self.spray, self.n = run, indices, run.spray, run.spray.n
        self.points = [run.points[i] for i in indices]
        # the points' one frames: every lower order reads their leading tables
        self.fr = Frame.block([self.spray.frame(p, 4) for p in self.points], 4)
        self.y = self.fr.y
        self.volumes = [VolumeBlock(self, dV) for dV in run.volumes]

    # chi by its definition, the reference of every other chi route (read
    # whole: one build of both orders, not the values and then the rest)
    chi = cached_property(lambda b: b.fr.chi[:][0])
    # R^i_k, the scale of the rows that state a vanishing
    scale = cached_property(lambda b: b.fr.R2_table[0])
    B = cached_property(lambda b: b.fr.B[0])
    # order-4 tables: R^i_k to second partials, R^{ i}_{j kl} to first
    R2 = cached_property(lambda b: b.fr.R2_table)
    R4 = cached_property(lambda b: b.fr.R4[:])
    # R^p_{ kl} = y^j R^{ p}_{j kl} and its first partials
    R3 = cached_property(lambda b: _product("pjkl,j->pkl", b.R4, b.fr.y_table))
    # horizontal covariant derivatives, direction last: [.., i,j,k,l,m] = R^{ i}_{j kl|m}
    covR4 = cached_property(lambda b: b.fr.cov_h(b.R4, ROLES4)[0])
    covB = cached_property(lambda b: b.fr.cov_h(b.fr.B, ROLES4)[0])
    covR3 = cached_property(lambda b: b.fr.cov_h(b.R3, ROLES4[:3])[0])
    covR2 = cached_property(lambda b: b.fr.cov_h(b.R2[:2], ROLES4[:2])[0])
    weyl = cached_property(lambda b: cv.weyl_values(b.fr))
    eta = cached_property(lambda b: cv.eta_values(b.fr))
    # the frames at (x, s y), s in SCALES, per point: one block [point, s]
    scaled = cached_property(lambda b: Frame.block(
        [b.spray.frame(p.scaled(s), 3) for p in b.points for s in SCALES], 3))
    # the frames of G + P y (`SuiteRunner.shifted`) at the points
    shifted = cached_property(lambda b: Frame.block(
        [b.run.shifted.frame(p, 1) for p in b.points], 1))

    def homogeneity(self):
        return np.array([self.spray.homogeneity_residual(p) for p in self.points])

    def euler(self):
        G, N, Gm, y = self.fr.G_values, self.fr.N_values, self.fr.Gamma_values, self.y
        Ny = (N @ y[..., None])[..., 0]         # a matrix product per point
        return _worst(rel_residual(Ny - 2 * G, G, N, lead=1),
                      rel_residual(np.einsum("...ijm,...m->...ij", Gm, y) - N, N, Gm,
                                   lead=1))

    def berwald_symmetry(self):
        B = self.B
        return _worst(*(rel_residual(B - B.transpose(perm), B, lead=1)
                        for perm in ((0, 1, 3, 2, 4), (0, 1, 4, 3, 2), (0, 1, 2, 4, 3))))

    def two_index_cross(self):
        R2v, R4 = self.R2[0], self.R4[0]
        return rel_residual(R2v - np.einsum("...ijkl,...j,...l->...ik", R4, self.y, self.y),
                            R2v, lead=1)

    def bianchi_first(self):
        R4 = self.R4[0]
        return rel_residual(R4 + R4.transpose(0, 1, 3, 4, 2) + R4.transpose(0, 1, 4, 2, 3),
                            R4, lead=1)

    def reconstruct(self):
        d2 = self.R2[2][..., self.n:, self.n:]      # [i,k,l,j] = d2R^i_k/dy^l dy^j
        rec = (np.einsum("...iklj->...ijkl", d2) - np.einsum("...ilkj->...ijkl", d2)) / 3.0
        return rel_residual(rec - self.R4[0], self.R4[0], lead=1)

    def contract3(self):
        R4, d1 = self.R4[0], self.R2[1][..., self.n:]    # [i,k,l] = dR^i_k/dy^l
        rhs = (2.0 * np.einsum("...ikj->...ijk", d1) + d1) / 3.0
        return rel_residual(np.einsum("...ijkl,...l->...ijk", R4, self.y) - rhs, R4, d1,
                            lead=1)

    def contract2(self):
        R4, d1 = self.R4[0], self.R2[1][..., self.n:]
        rhs = (d1 - np.einsum("...ilk->...ikl", d1)) / 3.0
        return rel_residual(np.einsum("...ijkl,...j->...ikl", R4, self.y) - rhs, R4, d1,
                            lead=1)

    def bianchi_second(self):
        cov, Bv, R3v = self.covR4, self.B, self.R3[0]
        term = (cov + np.einsum("...ijlmk->...ijklm", cov)
                + np.einsum("...ijmkl->...ijklm", cov))
        coupling = (np.einsum("...ijmp,...pkl->...ijklm", Bv, R3v)
                    + np.einsum("...ijlp,...pmk->...ijklm", Bv, R3v)
                    + np.einsum("...ijkp,...plm->...ijklm", Bv, R3v))
        return rel_residual(term + coupling, cov, coupling, lead=1)

    def mixed_vertical(self):
        dR4, cov = self.R4[1][..., self.n:], self.covB
        rhs = np.einsum("...ijmlk->...ijklm", cov) - np.einsum("...ijkml->...ijklm", cov)
        return rel_residual(dR4 - rhs, dR4, cov, lead=1)

    def berwald_vertical(self):
        dB = self.fr.B[1][..., self.n:]
        return rel_residual(dB - np.einsum("...ijkml->...ijklm", dB), dB, lead=1)

    def bianchi_contracted(self):
        cov = self.covR3
        cyc = cov + np.einsum("...plmk->...pklm", cov) + np.einsum("...pmkl->...pklm", cov)
        return rel_residual(cyc, cov, lead=1)

    def bianchi_contracted_y(self):
        cov2, cov3 = self.covR2, self.covR3
        lhs = (cov2 - np.einsum("...imk->...ikm", cov2)
               + np.einsum("...imkl,...l->...ikm", cov3, self.y))
        return rel_residual(lhs, cov2, cov3, lead=1)

    def ricci_trace(self):
        ric, y = self.fr.ric_jl, self.y
        yRy = ((y[..., None, :] @ ric) @ y[..., None])[..., 0, 0]   # per point
        return _worst(rel_residual(ric - np.swapaxes(ric, -1, -2), ric, lead=1),
                      rel_residual(yRy - self.fr.ric[0], ric, lead=1))

    def versus_chi(self, route: np.ndarray):
        return rel_residual(route - self.chi, self.chi, lead=1)

    def chi_cartan(self):
        from . import finsler       # loaded only for a spray with a metric
        route = np.array([finsler.chi_cartan(self.spray.metric, p) for p in self.points])
        return rel_residual(route - self.chi, self.chi, self.scale, lead=1)

    def chi_homogeneity(self):
        chi_s = self.scaled.chi[0].reshape(len(self.points), len(SCALES), self.n)
        s = np.array(SCALES)[:, None]
        return rel_residual(chi_s - s * self.chi[:, None], self.chi, lead=1)

    def weyl_route(self):
        w2 = cv.weyl_values(self.fr, "via_chi")
        return rel_residual(self.weyl - w2, self.weyl, w2, lead=1)

    def weyl_vertical_trace(self):
        # W^i_k = T^i_k + 3 chi_k y^i/(n+1) with its first partials
        fr, n = self.fr, self.n
        Wv, dW = plus_outer_y(fr.T, fr.chi, 3.0 / (n + 1), fr.y_table)
        div = np.einsum("...mkm->...k", dW[..., n:])        # dW^m_k/dy^m
        return rel_residual(np.abs(div).max(axis=-1), Wv, lead=1)

    def isotropic_four_index(self):
        n, R4, eye = self.n, self.R4[0], np.eye(self.n)
        dRR = self.fr.r_scalar[2][..., n:, n:]                # d2R/dy^l dy^j
        expect = 0.5 * (np.einsum("...lj,ik->...ijkl", dRR, eye)
                        - np.einsum("...kj,il->...ijkl", dRR, eye))
        return rel_residual(R4 - expect, R4, dRR, lead=1)

    def douglas_change(self):
        """[point, volume form]: D of each later volume form against the first's."""
        d0 = self.volumes[0].hfr.B[0]
        return np.stack([rel_residual(v.hfr.B[0] - d0, d0, v.hfr.B[0], lead=1)
                         for v in self.volumes[1:]], axis=-1)


class VolumeBlock:
    """What the volume-form rows share on one (volume form, block): the
    block of the deformed spray's frames at its points (`hfr`), and their
    residuals too long for `ROWS`, each an array [point]."""

    def __init__(self, blk: Block, dV: pj.VolumeForm):
        self.blk, self.dV, self.indices = blk, dV, blk.indices
        self.hat = pj.deform(blk.spray, dV)
        self.hfr = Frame.block([self.hat.frame(p, 3) for p in blk.points], 3)

    tau = cached_property(lambda v: v.hat.tau_values(v.blk.fr))
    s = cached_property(lambda v: pj.s_value(v.blk.fr, v.dV))
    ricci = cached_property(lambda v: pj.projective_ricci_values(v.blk.fr, v.hfr, v.tau))
    chi_s = cached_property(lambda v: pj.chi_via_s_values(v.blk.fr, v.dV))

    def s_homogeneity(self):
        S = pj.s_value(self.blk.scaled, self.dV).reshape(-1, len(SCALES))  # [point, s]
        s, S0 = np.array(SCALES), self.s[:, None]
        return np.max(np.abs(S - s * S0) / (1.0 + np.abs(S0)), axis=-1)

    def hat_riemann(self):
        d = self.hfr.R2_table[0]
        f = pj.hat_riemann_formula(self.blk.fr, self.tau)
        return rel_residual(d - f, d, f, lead=1)

    def hat_ricci_contract(self):
        ric, y = self.ricci["ric_jl"], self.blk.y
        yRy = ((y[..., None, :] @ ric) @ y[..., None])[..., 0, 0]   # per point
        return rel_residual(yRy - self.ricci["ric"], ric, lead=1)

    def hat_ricci_split(self):
        n, ric = self.blk.n, self.ricci["ric_jl"]
        tvv = self.tau[2][..., n:, n:]
        expect = self.blk.fr.ric_jl + (n - 1) / 2.0 * tvv - self.ricci["h_jl"]
        return rel_residual(ric - expect, ric, expect, lead=1)

    def chi_ordering_gap(self):
        other = pj.chi_via_s_values(self.blk.fr, self.dV, "horizontal-first")
        return rel_residual(self.chi_s - other, self.chi_s, self.blk.scale, lead=1)


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
    it; `residual` maps a context (`SuiteRunner._contexts`) to its residuals
    [point, ...].
    `hypothesis` maps the runner to (applicable, note), or to None to leave
    the row out; without one the row always applies."""
    __slots__ = ("id", "part", "eq_tag", "tolerance", "residual", "statement",
                 "hypothesis")

    def __init__(self, id: str, part: str, eq_tag: str, tolerance: float,
                 residual: Callable, statement: str,
                 hypothesis: Callable | None = None):
        self._init(id, part, eq_tag, tolerance, residual, statement, hypothesis)


P, V = Block, VolumeBlock
ROWS = (
    RowSpec("homogeneity", "homogeneity", "spray-degree-2", 1e-9,
            P.homogeneity,
            "G^i(x, s y) = s^2 G^i(x, y) for s in {0.5, 2, 3}"),
    RowSpec("euler-connection", "connection", "connection-euler", 1e-9, P.euler,
            "N^i_m y^m = 2 G^i and Gamma^i_jm y^m = N^i_j"),
    RowSpec("berwald-symmetry", "connection", "berwald-symmetric", 1e-10,
            P.berwald_symmetry, "B^{ i}_{j kl} is totally symmetric in j, k, l"),
    RowSpec("berwald-y-contraction", "connection", "berwald-contract", 1e-10,
            lambda b: rel_residual(np.einsum("...ijkl,...j->...ikl", b.B, b.y), b.B,
                                   lead=1),
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
            lambda b: b.versus_chi(cv.chi_trace_values(b.fr)),
            "chi_k = -(1/2) R^{ m}_{m kl} y^l equals the definition"),
    RowSpec("chi-route-local", "chi", "chi-local", 1e-8,
            lambda b: b.versus_chi(cv.chi_local_values(b.fr)),
            "chi via the Pi-formula equals the definition"),
    RowSpec("chi-route-T", "chi", "chi-from-T", 1e-8,
            lambda b: b.versus_chi(cv.chi_from_t_values(b.fr)),
            "chi_k = -(1/3) dT^m_k/dy^m equals the definition"),
    RowSpec("chi-homogeneity", "chi", "chi-degree-1", 1e-8, P.chi_homogeneity,
            "chi_k(x, s y) = s chi_k(x, y) for s in {0.5, 2}"),
    RowSpec("chi-y-contraction", "chi", "chi-contract", 1e-9,
            lambda b: rel_residual((b.chi[..., None, :] @ b.y[..., None])[..., 0, 0],
                                   b.chi, lead=1), "chi_k y^k = 0"),
    # only a spray induced by a Finsler metric has the mean-Cartan route
    RowSpec("chi-cartan-route", "chi", "chi-mean-cartan", 1e-6, P.chi_cartan,
            "the mean-Cartan route to chi equals the definition on the induced spray",
            lambda run: None if run.spray.metric is None else (True, "")),
    RowSpec("weyl-route", "weyl", "weyl-via-chi", 1e-8, P.weyl_route,
            "W^i_k = T^i_k + 3 chi_k y^i/(n+1) equals the direct Weyl"),
    RowSpec("weyl-vertical-trace", "weyl", "weyl-trace", 1e-8, P.weyl_vertical_trace,
            "dW^m_k/dy^m = 0"),
    RowSpec("t-trace", "weyl", "t-traceless", 1e-9,
            lambda b: rel_residual(np.einsum("...mm->...", b.fr.T[0]), b.fr.T[0], lead=1),
            "T^m_m = 0"),
    RowSpec("isotropic-4idx", "isotropic", "isotropic-four-index", 1e-7,
            P.isotropic_four_index, "isotropic curvature forces R^{ i}_{j kl} = "
            "(1/2){R_{.l.j} d^i_k - R_{.k.j} d^i_l}", _requires(_ISOTROPIC)),
    RowSpec("isotropic-grad", "isotropic", "isotropic-gradient", 1e-7,
            lambda b: rel_residual((b.n - 2) * 2.0 * b.eta, b.scale, lead=1),
            "(n-2)(R_{.l|m} y^m - 2 R_{|l}) = 0 for isotropic sprays", _ISOTROPIC_N3),
    RowSpec("eta-isotropic", "isotropic", "eta-vanishes", 1e-7,
            lambda b: rel_residual(b.eta, b.scale, lead=1),
            "eta = (1/2) R_{.k|m} y^m - R_{|k} = 0 for isotropic sprays, n >= 3",
            _ISOTROPIC_N3),
    RowSpec("dual-equivalence-R", "isotropic", "dual-R", 1e-7,
            lambda b: rel_residual(b.eta, b.scale, lead=1),
            "the curvature scalar R is dually equivalent to G when isotropic, n >= 3",
            _ISOTROPIC_N3),
    RowSpec("s-closed-chi", "s-closed", "s-closed-implies-chi", 1e-7,
            lambda b: rel_residual(b.chi, b.scale, lead=1),
            "an S-closed spray (Pi a closed 1-form) has chi = 0", _s_closed),
    RowSpec("s-homogeneity", "volume", "s-degree-1", 1e-9, V.s_homogeneity,
            "S(x, s y) = s S(x, y)"),
    RowSpec("deformed-s-vanishes", "volume", "deformation-s-zero", 1e-9,
            lambda v: np.abs(pj.s_value(v.hfr, v.dV)) / (1.0 + np.abs(v.s)),
            "the S-curvature of the deformed spray vanishes"),
    RowSpec("deformed-chi-vanishes", "volume", "deformation-chi-zero", 1e-7,
            lambda v: rel_residual(v.hfr.chi[0], v.blk.scale, lead=1),
            "the deformed spray has chi = 0 for every volume form"),
    RowSpec("hat-riemann-route", "volume", "hat-riemann-formula", 1e-7, V.hat_riemann,
            "direct curvature of the deformed spray equals the closed formula in "
            "tau and chi"),
    RowSpec("projective-ricci-contract", "volume", "hat-ricci-contract", 1e-8,
            V.hat_ricci_contract, "Ric_hat_jl y^j y^l = Ric + (n-1) tau"),
    RowSpec("projective-ricci-decomposition", "volume", "hat-ricci-split", 1e-7,
            V.hat_ricci_split, "Ric_hat_jl = Ric_jl + (n-1)/2 tau_{.j.l} - H_jl"),
    RowSpec("weylhat-equals-weyl", "volume", "hat-T-is-weyl", 1e-8,
            lambda v: rel_residual(v.hfr.T[0] - v.blk.weyl, v.blk.weyl, v.hfr.T[0],
                                   lead=1),
            "the trace-free curvature of the deformed spray equals the Weyl "
            "curvature of the base spray"),
    RowSpec("douglas-volume-independent", "douglas", "douglas-invariant", 1e-8,
            P.douglas_change, "the Berwald curvature of the deformed spray does not "
            "depend on the volume form",
            _requires((lambda run: len(run.volumes) >= 2,
                       "not applicable with one volume form: nothing to compare"))),
    RowSpec("projective-invariance", "volume", "deformation-projective", 1e-9,
            lambda v: pj.projective_invariance_values(v.blk.fr, v.blk.shifted, v.dV),
            "G and G + P y deform to the same spray"),
    RowSpec("chi-route-volume", "volume", "chi-via-s", 1e-8,
            lambda v: rel_residual(v.chi_s - v.blk.chi, v.blk.chi, v.blk.scale, lead=1),
            "chi_k = (1/2){S_{.k|m} y^m - S_{|k}} for every volume form"),
    RowSpec("chi-ordering-gap", "volume", "chi-s-orderings", 1e-10,
            V.chi_ordering_gap, "both derivative orderings of the S-route agree"),
    RowSpec("isotropic-hat", "volume", "hat-isotropic", 1e-7,
            lambda v: rel_residual(v.hfr.T[0], v.blk.scale, lead=1),
            "scalar-curvature sprays deform to isotropic sprays", _requires(_SCALAR)),
    RowSpec("eta-hat-vanishes", "volume", "hat-eta-zero", 1e-7,
            lambda v: rel_residual(pj.eta_hat_values(v.blk.fr, v.hfr, v.tau),
                                   v.blk.scale, lead=1),
            "eta of the deformed spray vanishes for scalar-curvature sprays, n >= 3",
            _requires(_SCALAR, (lambda run: run.spray.n >= 3,
                                "not applicable in dimension 2"))),
    RowSpec("rapcsak-of-S", "volume", "projective-metric-residual", 1e-7,
            lambda v: rel_residual(2.0 * v.chi_s, v.blk.scale, lead=1),
            "with chi = 0, S_{.k|m} y^m - S_{|k} = 0 for every volume form",
            _requires((lambda run: run.cls.chi_zero,
                       "hypothesis fails: chi does not vanish on the sample"))),
)


def _part(*parts):
    """A suite part: a `SuiteRunner` method that fills the rows of `parts`."""
    return lambda run: run._fill(*parts)


class SuiteRunner:
    """Runs the identity suite for one spray over a point sample."""

    def __init__(self, spray: SprayChart, points, volumes=None,
                 tolerances=None):
        self.spray = spray
        self.points = list(points)
        self.volumes = volumes if volumes is not None else [
            pj.VolumeForm(s, spray.n) for s in DEFAULT_SIGMAS]
        self.tolerances = dict(tolerances or {})
        self.rows = []

    @cached_property
    def blocks(self) -> list:
        """The sample's blocks (`point_blocks` at order 4).  The frames come
        first, point by point: the top order of the base spray (lower orders
        read it), then the deformed spray's per volume form (its coefficients
        read S at order 4), so the first domain error is the first point's."""
        for p in self.points:
            self.spray.frame(p, 4)
            for dV in self.volumes:
                pj.deform(self.spray, dV).frame(p, 3)
        cut = point_blocks(list(range(len(self.points))), self.spray.n, 4)
        return [Block(self, indices) for indices in cut]

    # the classification flags that the hypotheses read and the report echoes
    cls = cached_property(lambda run: cv.classify(b.fr for b in run.blocks))
    # G + P y, projectively related to G, for the projective-invariance row
    shifted = cached_property(
        lambda run: pj.with_projective_factor(run.spray, "0.3*y1 + 0.1*y2"))

    def run(self):
        self.blocks
        self._homogeneity()
        self._connection_rows()
        self._four_index_rows()
        self._chi_rows()
        self._weyl_t_rows()
        self._isotropic_rows()
        self._s_closed_rows()
        self._volume_rows()
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
                row.extend(spec.residual(ctx), ctx.indices)

    def _contexts(self, part):
        # the order fixes each row's mean and the point of a tied maximum:
        # volume forms outermost; the douglas row takes per point each later
        # volume form against the first ([point, volume form], C order)
        if part == "volume":
            return [b.volumes[k] for k in range(len(self.volumes)) for b in self.blocks]
        return self.blocks

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


def run_suite(spray, points, volumes=None, tolerances=None):
    """Run the identity suite; returns the Row objects."""
    return SuiteRunner(spray, points, volumes, tolerances).run()
