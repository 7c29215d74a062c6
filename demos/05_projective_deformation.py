#!/usr/bin/env python3
"""The projective deformation by the S-curvature, and what it preserves.

Given any volume form, the deformed spray G^i - S y^i/(n+1) has vanishing
S-curvature and vanishing chi.  Its trace-free curvature reproduces the Weyl
curvature of the base spray, and its Berwald curvature (the Douglas tensor)
does not depend on the chosen volume form: the classical projective
invariants drop out of one construction.
"""

import numpy as np

from spraylab import curvature as cv
from spraylab import projective as pj
from spraylab import spray_core as sc
from spraylab.spray_core import Box, ExpressionSpray, PointTM
from spraylab import exprdsl

np.set_printoptions(precision=6, suppress=True)

fix = ExpressionSpray(2, [exprdsl.parse("x2*y1^2/2", 2), exprdsl.parse("0", 2)],
                      Box.cube(2, 1.0), "hand-fixture")
p = PointTM((0.1, -0.2), (0.7, 0.4))

print(f"base spray {fix.label}: chi = {cv.chi_definition(fix, p)}")
for sig in ("1", "exp(x1)", "1+0.5*x1^2"):
    dV = pj.VolumeForm(sig, 2)
    hat = pj.deform(fix, dV)
    S = pj.s_curvature(fix, dV, p)
    S_hat = pj.s_curvature(hat, dV, p)
    chi_hat = cv.chi_definition(hat, p)
    print(f"  dV = {sig:<11} S = {S:+.6f}  S_hat = {S_hat:+.1e}  "
          f"max|chi_hat| = {np.abs(chi_hat).max():.2e}")

print("\n== the deformed curvature has a closed formula in tau and chi")
dV = pj.VolumeForm("exp(x1)", 2)
d = pj.hat_riemann(fix, dV, p, "direct")
f = pj.hat_riemann(fix, dV, p, "formula")
print(f"direct:\n{d}")
print(f"formula route difference: {np.abs(d - f).max():.2e}")

print("\n== projective invariance: G and G + P y deform identically")
shifted = pj.with_projective_factor(fix, "0.3*y1 + 0.1*y2")
pts = sc.sample_points(fix, 10, seed=5)
print(f"max deformed-coefficient difference: "
      f"{pj.projective_invariance_check(fix, shifted, dV, pts):.2e}")

print("\n== Douglas tensor ignores the volume form; deformed T is the Weyl "
      "curvature")
dV2 = pj.VolumeForm("(1+0.5*x1^2)*exp(x1)", 2)
D1 = pj.douglas(fix, dV, p)
D2 = pj.douglas(fix, dV2, p)
print(f"Douglas difference across volumes: {np.abs(D1 - D2).max():.2e}")
W = cv.weyl(fix, p)
T_hat = pj.weyl_hat(fix, dV, p)
print(f"deformed-T vs Weyl difference:     {np.abs(W - T_hat).max():.2e}")

print("\n== closedness of the divergence forces chi = 0")
res = pj.s_closed_residual(fix, pts)
print(f"this spray is not closed: curl residual {res['curl_raw']:.3f}; "
      f"its chi is genuinely nonzero (see above)")
ex = sc.make_family("example72", f="x1*x2")
res2 = pj.s_closed_residual(ex, sc.sample_points(ex, 10, seed=5))
print(f"the polynomial family is closed (curl {res2['curl']:.1e}) and "
      f"indeed has chi = 0")
