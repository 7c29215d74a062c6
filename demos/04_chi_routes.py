#!/usr/bin/env python3
"""Five independent routes to the chi-covector of a spray.

chi is built from vertical derivatives of the Riemann curvature; it also has
a trace form through the four-index tensor, a local formula through the
divergence Pi = dG^m/dy^m, a form through the trace-free tensor T, and (for
metric sprays) a form through the mean Cartan torsion.  They must all agree,
and they do, to machine precision.
"""

import numpy as np

from spraylab import curvature as cv
from spraylab import finsler as fl
from spraylab import projective as pj
from spraylab import spray_core as sc
from spraylab.spray_core import PointTM, make_custom
from spraylab import exprdsl

np.set_printoptions(precision=10, suppress=True)

fix = make_custom(doc=exprdsl.parse_spray_source(
          "dim = 2\nG1 = x2*y1^2/2\nG2 = 0"), label="hand-fixture")
p = PointTM((0.1, -0.2), (0.7, 0.4))
print(f"spray {fix.label} at y = {p.y}: expected chi = (y2/2, -y1/2) = "
      f"({p.y[1] / 2}, {-p.y[0] / 2})\n")
for route in (cv.chi_definition, cv.chi_trace, cv.chi_local, cv.chi_from_t):
    print(f"  {route.__name__:<15} {route(fix, p)}")
for sig in ("1", "exp(x1)", "1+0.5*x1^2"):
    chi = pj.chi_via_s(fix, pj.VolumeForm(sig, 2), p)
    print(f"  S-route, dV = {sig:<11} {chi}   (volume-independent)")

print("\n== metric route on a Randers norm")
rd = fl.RandersData({(1, 1): "1+x2^2", (2, 2): "1+x1^2", (1, 2): "x1*x2/2"},
                    {1: "0.2*x2", 2: "-0.1*x1"}, 2, box=0.8)
F = rd.metric()
sp = fl.induced_spray(F)
a = fl.chi_cartan(F, p)
b = cv.chi_definition(sp, p)
print(f"  mean-Cartan route : {a}")
print(f"  definition route  : {b}")
print(f"  difference        : {np.abs(a - b).max():.2e}")

print("\n== chi vanishes for the 2D polynomial family (its divergence is "
      "an exact differential)")
ex = sc.make_family("example72", A="x1", B="x2^2", C="x1*x2", D="1+x1",
                    f="x1*x2")
for q in sc.sample_points(ex, 3, seed=1):
    print(f"  chi at x = {np.round(q.x, 3)}: "
          f"{np.abs(cv.chi_definition(ex, q)).max():.2e}")
