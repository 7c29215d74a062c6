#!/usr/bin/env python3
"""Randers norms: the closed-form deformation and an exact isotropy witness.

For F = alpha + beta the spray deformed by the alpha-volume has the closed
form G_alpha^i + alpha s^i_0, where s is the antisymmetric part of the
covariant derivative of beta.  Over a flat alpha with the rotational 1-form
b = eps (-x2, x1), both scalar-curvature conditions hold exactly with the
constant kappa = 5 eps^2, and the deformed spray is of isotropic curvature
with curvature scalar kappa alpha^2 + t_00.
"""

import numpy as np

from spraylab import curvature as cv
from spraylab import finsler as fl
from spraylab import projective as pj
from spraylab import spray_core as sc

np.set_printoptions(precision=6, suppress=True)

print("== generic curved instance: the two deformation routes coincide")
rd = fl.RandersData({(1, 1): "1+x2^2", (2, 2): "1+x1^2", (1, 2): "x1*x2/2"},
                    {1: "0.2*x2", 2: "-0.1*x1"}, 2, box=0.8)
sp = fl.induced_spray(rd.metric())
dVa = rd.volume_alpha()
hat_closed = rd.deformed_spray()
hat = pj.deform(sp, dVa)
worst = 0.0
for p in sc.sample_points(sp, 20, seed=7):
    a = hat_closed.coefficients(p)
    b = np.array([sc.carrier_value(v)
                  for v in hat.eval_coefficients(list(p.x), list(p.y))])
    worst = max(worst, np.abs(a - b).max())
print(f"max coefficient difference over 20 points: {worst:.2e}")

p = sc.sample_points(sp, 1, seed=8)[0]
qt = rd.quantities(p)
print(f"\nderived tensors at one point:")
print(f"  r (symmetric part)     =\n{qt['r']}")
print(f"  s (antisymmetric part) =\n{qt['s']}")
print(f"  |b|-related s_j = {qt['s_j']},  t_j = {qt['t_j']}")

print("\n== exact witness: flat alpha, b = eps(-x2, x1), kappa = 5 eps^2")
EPS = 0.1
wit = fl.RandersData({(1, 1): "1", (2, 2): "1"},
                     {1: f"-{EPS}*x2", 2: f"{EPS}*x1"}, 2, box=0.9)
kappa = f"{5 * EPS ** 2}"
pts = sc.sample_points(wit.alpha_spray(), 10, seed=9)
res = wit.isotropy_residuals(kappa, pts)
print(f"curvature-equation residual:    {res['curvature_eq']:.2e}")
print(f"conservation-equation residual: {res['conservation_eq']:.2e}")

hat_w = wit.deformed_spray()
q = pts[0]
formula = wit.hat_R(kappa, q)
direct = cv.ricci_scalar(hat_w, q)
print(f"\ncurvature scalar of the deformed spray at one point:")
print(f"  closed formula kappa alpha^2 + t_00 + ... = {formula:.10f}")
print(f"  (n-1)^-1 Ric computed from jets           = {direct:.10f}")
T = cv.t_curvature(hat_w, q)
print(f"  isotropy: max |T| = {np.abs(T).max():.2e}")
