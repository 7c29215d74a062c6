#!/usr/bin/env python3
"""Connection and curvature tensors of a spray on one chart.

Every spray is n coefficient functions G^i(x, y), 2-homogeneous in y.  From
their jets at a point the library assembles the nonlinear connection N, the
Berwald connection Gamma, the Berwald curvature B, and the Riemann curvature
in two- and four-index form, then checks the classical identities.
"""

import numpy as np

from spraylab import spray_core as sc
from spraylab.spray_core import PointTM, make_family, sample_points

np.set_printoptions(precision=5, suppress=True)

sp = make_family("sphere", n=3, kappa=1.0)
p = sample_points(sp, 1, seed=42)[0]
print(f"spray: {sp.label}")
print(f"point: x = {np.round(p.x, 4)}, y = {np.round(p.y, 4)}")

G = sp.coefficients(p)
N = sc.nonlinear_connection(sp, p)
print(f"\ncoefficients G = {G}")
print(f"Euler check N.y - 2G = {N @ np.array(p.y) - 2 * G}")

R = sc.riemann_two_index(sp, p)
print("\ntwo-index Riemann curvature (cross-checked against the four-index "
      "contraction):")
print(R)

gv = 4.0 / (1.0 + sum(v * v for v in p.x)) ** 2
y = np.array(p.y)
expect = gv * float(y @ y) * np.eye(3) - np.outer(y, gv * y)
print(f"constant-curvature prediction error: {np.abs(R - expect).max():.2e}")

R4 = sc.riemann_four_index(sp, p)
cyc = R4 + R4.transpose(0, 2, 3, 1) + R4.transpose(0, 3, 1, 2)
print(f"\nfour-index tensor: antisymmetry {np.abs(R4 + R4.transpose(0,1,3,2)).max():.2e}, "
      f"first Bianchi {np.abs(cyc).max():.2e}")

B = sc.berwald_curvature(sp, p)
print(f"Berwald curvature of a metric spray vanishes: max |B| = {np.abs(B).max():.2e}")

print("\n== a spray that is not metric: G^1 = x2 y1^2 / 2")
from spraylab import exprdsl
from spraylab.spray_core import make_custom
fix = make_custom(doc=exprdsl.parse_spray_source(
          "dim = 2\nG1 = x2*y1^2/2\nG2 = 0"), label="hand-fixture")
q = PointTM((0.1, -0.2), (0.7, 0.4))
print(f"R = \n{sc.riemann_two_index(fix, q)}")
print(f"(hand computation gives [[-y1 y2, y1^2], [0, 0]] = "
      f"[[{-0.7 * 0.4}, {0.7 ** 2}], [0, 0]])")
