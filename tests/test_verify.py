"""The suite runner itself: groups, applicability logic, hard sprays."""

import pytest

from spraylab import exprdsl, verify
from spraylab.spray_core import Box, ExpressionSpray, make_family, sample_points


@pytest.fixture(scope="module")
def nonquad3():
    # coefficients not quadratic in y: nonzero Berwald curvature exercises
    # the curvature-coupling terms of the covariant identities
    return ExpressionSpray(3, [exprdsl.parse("y1^4/(y1^2+y2^2+y3^2)", 3),
                               exprdsl.parse("x1*y2^2 + x3*y1*y2", 3),
                               exprdsl.parse("x2*y3^2", 3)],
                           Box.cube(3, 1.0), "nonquad3")


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
    assert sp.metric.spray() is sp
    rows = verify.run_suite(sp, sample_points(sp, 5, seed=98))
    assert not [r.id for r in rows if r.passed is False]
    cartan = [r for r in rows if r.id == "chi-cartan-route"]
    assert len(cartan) == 1 and cartan[0].passed is True


def test_group_selection(nonquad3):
    pts = sample_points(nonquad3, 2, seed=1)
    rows = verify.run_suite(nonquad3, pts, groups=("chi",))
    assert {r.id for r in rows} == {"chi-route-trace", "chi-route-local",
                                    "chi-route-T", "chi-homogeneity",
                                    "chi-y-contraction"}
    with pytest.raises(ValueError, match="unknown suite groups"):
        verify.run_suite(nonquad3, pts, groups=("nope",))


def test_not_applicable_rows_report_null(nonquad3):
    # this spray is not isotropic: the isotropy-conditional rows must be n/a
    pts = sample_points(nonquad3, 4, seed=2)
    rows = verify.run_suite(nonquad3, pts, groups=("isotropic",))
    for r in rows:
        assert r.passed is None
        assert not r.applicable
        assert "hypothesis fails" in r.note
        d = r.as_dict()
        assert d["pass"] is None and d["max_residual"] is None


def test_row_argmax_points_are_sample_indices(nonquad3):
    pts = sample_points(nonquad3, 5, seed=3)
    rows = verify.run_suite(nonquad3, pts, groups=("base", "volume"))
    for r in rows:
        if r.residuals and r.argmax_point is not None:
            assert 0 <= r.argmax_point < len(pts)


def test_tolerance_override_applies(nonquad3):
    pts = sample_points(nonquad3, 2, seed=4)
    rows = verify.run_suite(nonquad3, pts, groups=("base",),
                            tolerances={"homogeneity": 1e-30})
    hom = next(r for r in rows if r.id == "homogeneity")
    assert hom.tolerance == 1e-30
    assert hom.passed is False
