"""The suite runner itself: row order, applicability logic, hard sprays."""

import math
from collections import defaultdict

import numpy as np
import pytest

from spraylab import cli, exprdsl, verify
from spraylab import finsler as fl
from spraylab import projective as pj
from spraylab.spray_core import make_custom, make_family, sample_points


@pytest.fixture(scope="module")
def nonquad3():
    # coefficients not quadratic in y: nonzero Berwald curvature exercises
    # the curvature-coupling terms of the covariant identities
    return make_custom(doc=exprdsl.parse_spray_source(
               "dim = 3\nG1 = y1^4/(y1^2+y2^2+y3^2)\nG2 = x1*y2^2 + x3*y1*y2\n"
               "G3 = x2*y3^2"), label="nonquad3")


def test_full_suite_on_non_berwaldian_spray(nonquad3):
    pts = sample_points(nonquad3, 8, seed=99)
    rows = verify.run_suite(nonquad3, pts)
    failed = [r.id for r in rows if r.passed is False]
    assert not failed, failed
    # the coupling rows actually measured something at nonzero B
    ids = {r.id: r for r in rows}
    assert ids["bianchi-second"].residuals
    assert ids["mixed-vertical"].residuals


def test_full_suite_on_randers_spray():
    sp = make_family("randers", a={(1, 1): "1+x2^2", (2, 2): "1+x1^2"},
                     b={1: "0.2*x2", 2: "-0.1*x1"}, n=2, box=0.8)
    # an induced spray carries its metric, so the mean-Cartan chi route
    # joins the suite without being asked for
    assert fl.induced_spray(sp.metric) is sp
    rows = verify.run_suite(sp, sample_points(sp, 5, seed=98))
    assert not [r.id for r in rows if r.passed is False]
    cartan = [r for r in rows if r.id == "chi-cartan-route"]
    assert len(cartan) == 1 and cartan[0].passed is True


def test_not_applicable_rows_report_null(nonquad3):
    # this spray is not isotropic: the isotropy-conditional rows must be n/a
    pts = sample_points(nonquad3, 4, seed=2)
    isotropic = {"isotropic-4idx", "isotropic-grad", "eta-isotropic",
                 "dual-equivalence-R"}
    rows = [r for r in verify.run_suite(nonquad3, pts) if r.id in isotropic]
    assert len(rows) == len(isotropic)
    for r in rows:
        assert r.passed is None
        assert not r.applicable
        assert "hypothesis fails" in r.note
        d = r.as_dict()
        assert d["pass"] is None and d["max_residual"] is None


def test_row_argmax_points_are_sample_indices(nonquad3):
    # every residual carries the sample point it came from, so every row
    # that measured something names the point of its worst residual
    pts = sample_points(nonquad3, 5, seed=3)
    rows = verify.run_suite(nonquad3, pts)
    measured = [r for r in rows if r.residuals]
    ids = {r.id for r in measured}
    assert {"projective-invariance", "bianchi-second"} <= ids
    for r in measured:
        assert r.argmax_point is not None, r.id
        assert 0 <= r.argmax_point < len(pts)


def test_four_index_group_at_dimension_four():
    # dim-8 jets: the covariant derivatives of the Bianchi rows at n = 4
    sp = make_family("sphere", n=4, kappa=1.0)
    four_index = {s.id for s in verify.ROWS
                  if s.part in ("four-index", "bianchi-second")}
    rows = [r for r in verify.run_suite(sp, sample_points(sp, 2, seed=7))
            if r.id in four_index]
    assert len(rows) == 11
    assert all(r.passed is True for r in rows), [r.id for r in rows]


def test_tolerance_override_applies(nonquad3):
    pts = sample_points(nonquad3, 2, seed=4)
    rows = verify.run_suite(nonquad3, pts, tolerances={"homogeneity": 1e-30})
    hom = next(r for r in rows if r.id == "homogeneity")
    assert hom.tolerance == 1e-30
    assert hom.passed is False


def test_rows_follow_the_table(nonquad3):
    # every row is declared once: the report order, tags, statements and
    # tolerances of a full run are those of the table
    rows = verify.run_suite(nonquad3, sample_points(nonquad3, 2, seed=5))
    specs = {spec.id: spec for spec in verify.ROWS}
    assert len(specs) == len(verify.ROWS)
    # a bare spray carries no metric, so only the mean-Cartan row is left out
    assert [r.id for r in rows] == [s.id for s in verify.ROWS
                                    if s.id != "chi-cartan-route"]
    for r in rows:
        spec = specs[r.id]
        assert (r.eq_tag, r.statement, r.tolerance) == (
            spec.eq_tag, spec.statement, spec.tolerance)


def test_every_table_id_is_a_tol_key():
    parser = cli.build_parser()
    for spec in verify.ROWS:
        args = parser.parse_args(["verify", "--spray", "flat", "--tol",
                                  f"{spec.id}=0.5"])
        assert args.tol == {spec.id: 0.5}


def test_nan_residual_fails_its_row():
    # a NaN after a finite residual must not be dropped by the maximum
    row = verify.Row("r", "tag", "statement", 1e-8)
    row.add(1e-12, 0)
    row.add(float("nan"), 1)
    assert math.isnan(row.max_residual)
    assert row.passed is False
    assert row.argmax_point == 1


def test_a_nan_mid_block_fails_its_row_at_its_point():
    # the rows combine their sub-residuals elementwise (np.maximum, np.max),
    # which keep a NaN wherever it sits: a NaN at the third point of a block
    # in the second part of a row fails the row there; a NaN in T clears the
    # isotropy flag, so the isotropic rows are not applicable
    sp = make_family("sphere", n=3, kappa=1.0)
    runner = verify.SuiteRunner(sp, sample_points(sp, 5, seed=8))
    (blk,) = runner.blocks

    def poisoned(fr, name, *where):
        value = getattr(fr, name)       # an array, or a table [values, ...]
        single = isinstance(value, np.ndarray)
        tables = [np.array(t) for t in ([value] if single else value[:])]
        tables[0][where] = np.nan
        fr.__dict__[name] = tables[0] if single else tables

    poisoned(blk.fr, "Gamma_values", 2, 0, 1, 1)   # Gamma y - N, after N y - 2G
    poisoned(blk.fr, "B", 2, 0, 0, 0, 1)           # a transpose of B
    poisoned(blk.fr, "ric", 2)                     # Ric after Ric_jl symmetry
    poisoned(blk.fr, "T", 2, 1, 0)
    poisoned(blk.scaled, "chi", 5, 1)              # point 2 at s = 2
    rows = {r.id: r for r in runner.run()}
    for rid in ("euler-connection", "berwald-symmetry", "ricci-trace",
                "chi-homogeneity", "t-trace"):
        row = rows[rid]
        assert math.isnan(row.max_residual) and row.passed is False, rid
        assert row.argmax_point == 2 and not np.isnan(row.residuals[:2]).any(), rid
    assert math.isnan(runner.cls.isotropy_residual) and not runner.cls.isotropic
    assert rows["isotropic-4idx"].applicable is False


def test_deform_is_memoized_per_volume_form():
    sp = make_family("sphere", n=3, kappa=1.0)
    dV, other = pj.VolumeForm("exp(x1)", 3), pj.VolumeForm("exp(x1)", 3)
    assert pj.deform(sp, dV) is pj.deform(sp, dV)
    assert pj.deform(sp, other) is not pj.deform(sp, dV)


def test_volume_rows_share_one_deformed_frame_per_order():
    # sphere(n=3) has scalar curvature, so eta-hat runs too; it reads the
    # deformed spray off the base order-4 frame and asks for no deformed frame
    # of order 4; the rows that read orders 1 and 2 take the leading tables
    # of the one order-3 frame
    sp = make_family("sphere", n=3, kappa=1.0)
    runner = verify.SuiteRunner(sp, sample_points(sp, 1, seed=6))
    runner._volume_rows()
    assert all(r.passed is True for r in runner.rows), \
        [r.id for r in runner.rows if r.passed is not True]
    for dV in runner.volumes:
        frames = pj.deform(sp, dV)._frames
        assert [fr.order for fr in frames.values()] == [3]


def test_one_point_suite_builds_no_frame_above_order_4():
    # a deformed frame of order k pulls a base frame of order k + 1, so an
    # order-4 deformed frame would bring dim-2n order-5 jets into the run
    sp = make_family("sphere", n=3, kappa=1.0)
    runner = verify.SuiteRunner(sp, sample_points(sp, 1, seed=1))
    runner.run()
    assert not [r.id for r in runner.rows if r.passed is False]
    sprays = [sp, runner.shifted]
    sprays += [hat for s in sprays for hat in s._deformed.values()]
    orders = {s.label: sorted({fr.order for fr in s._frames.values()})
              for s in sprays}
    assert len(sprays) == 2 + 2 * len(runner.volumes), orders
    assert all(o <= 4 for os in orders.values() for o in os), orders


def test_one_point_suite_builds_s_once_per_point(monkeypatch):
    # S of (G, dV) belongs to the deformed spray, which builds it once per
    # point: the suite asks for order 4 at each sample point, and the
    # deformed frames, chi_via_s, eta_hat and tau read prefix slices of it.
    # Row values of S (`s_curvature`, also at the scaled points of
    # chi-homogeneity and for the deformed and shifted sprays) are floats
    # read off order-1 frames (`s_value`) and build no S jet; they built an
    # order-1 one per (spray, volume form, point) before.
    builds = defaultdict(list)
    s_jet = pj.s_jet

    def counted(fr, dV):
        builds[fr.spray, dV, fr.point.x, fr.point.y].append(fr.order)
        return s_jet(fr, dV)

    monkeypatch.setattr(pj, "s_jet", counted)
    sp = make_family("sphere", n=3, kappa=1.0)
    (p,) = points = sample_points(sp, 1, seed=1)
    runner = verify.SuiteRunner(sp, points)
    rows = runner.run()
    assert not [r.id for r in rows if r.passed is False]
    assert builds == {(sp, dV, p.x, p.y): [4] for dV in runner.volumes}, builds


def test_jet_work_of_one_point_suite(monkeypatch):
    # value-only tensors are float tables; a jet path put back for one shows
    # here.  Before R4 and ric_jl were read off the Berwald connection as
    # floats the counts were 6473 products and 306 hpart calls; before B, chi
    # and T became float tables, 4667 products, 1989 .d calls and 36 hpart
    # calls; before eta_hat was read off the base order-4 frame with one tau
    # per (volume form, point), 4370, 1332 and 36; before the deformed spray
    # built S once per (point, order) and hat_riemann read its tau, 3656,
    # 1017 and 27; before R^i_k, Ric and R became float tables read off the
    # partials of G, 3398, 981 and 18; before the suite asked for the order-4
    # frame first and the lower orders truncated its jets, 2201, 189 and 18;
    # before g, dg and dlog ran on x-only jets and S was built once per point
    # at order 4, 1234, 189 and 18; before g was factored on x-only jets and
    # back-substitution reused each pivot's reciprocal, 772, 171 and 18;
    # before the horizontal derivative was taken on float tables only (tau,
    # horizontal-first chi and chi_cartan included) and N, Gamma and the jet
    # hpart/cov_h left the frame, 739, 171 and 18; before the metric spray's
    # right-hand side was placed, the solve skipped zero jets and S values
    # were read on floats, 634 and 24 (no hpart or cov_h call on jets).  Now
    # 362 products and 6 .d calls, and no hpart or cov_h call receives jets.
    from spraylab import jets
    from spraylab.spray_core import Frame
    counts = {"mul": 0, "d": 0, "hpart": 0}

    def counted(key, fn, when=lambda *args: True):
        def wrapper(*args):
            counts[key] += when(*args)
            return fn(*args)
        return wrapper

    def on_jets(_frame, T, *rest):
        return isinstance(T, jets.Jet) or any(
            getattr(t, "dtype", None) != float for t in T)

    mul = counted("mul", jets.Jet.__mul__)
    monkeypatch.setattr(jets.Jet, "__mul__", mul)
    monkeypatch.setattr(jets.Jet, "__rmul__", mul)
    monkeypatch.setattr(jets.Jet, "d", counted("d", jets.Jet.d))
    for name in ("hpart", "cov_h"):
        monkeypatch.setattr(Frame, name, counted("hpart", getattr(Frame, name), on_jets))
    sp = make_family("sphere", n=3, kappa=1.0)
    rows = verify.run_suite(sp, sample_points(sp, 1, seed=1))
    assert not [r.id for r in rows if r.passed is False]
    assert (counts["mul"] <= 362 and counts["d"] <= 6
            and counts["hpart"] == 0), counts


def test_dsl_node_visits_per_order_4_frame(monkeypatch):
    # interned nodes: structurally equal subtrees at equal spans are one
    # node, so `evaluate`'s memo visits each once.  Before interning an
    # order-4 frame took 186 (sphere n=3), 340 (n=4) and 736 (Randers)
    # visits; now 80, 136 and 317.
    visits = [0]
    evaluate = exprdsl.evaluate

    def counted(*args):
        visits[0] += 1
        return evaluate(*args)

    randers = make_family("randers", a={(1, 1): "1+x2^2", (2, 2): "1+x1^2",
                                        (1, 2): "x1*x2/2"},
                          b={1: "0.2*x2", 2: "-0.1*x1"}, n=2, box=0.8)
    sprays = [(make_family("sphere", n=3, kappa=1.0), 88),
              (make_family("sphere", n=4, kappa=1.0), 150), (randers, 350)]
    monkeypatch.setattr(exprdsl, "evaluate", counted)
    for spray, bound in sprays:
        for p in sample_points(spray, 2, seed=3):
            visits[0] = 0
            spray.frame(p, 4)
            assert visits[0] <= bound, (spray.label, visits[0])
