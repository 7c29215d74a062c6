"""spraylab: curvature quantities of sprays via exact Taylor-jet calculus.

The public names below are imported from their modules on first access
(PEP 562), so ``import spraylab`` alone loads no submodule and each command
of the CLI loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "jets": ("Jet", "JetDomainError", "eval_derivatives", "lift_variable",
             "partial"),
    "spray_core": ("Box", "PointTM", "SprayChart", "TensorValue",
                   "berwald_connection", "berwald_curvature", "make_family",
                   "nonlinear_connection", "riemann_four_index",
                   "riemann_two_index", "sample_points"),
    "curvature": ("ChiValue", "chi_definition", "chi_from_t", "chi_local",
                  "chi_trace", "classify", "eta", "ricci_scalar",
                  "ricci_tensor", "t_curvature", "weyl"),
    "projective": ("DeformedSpray", "VolumeForm", "deform", "douglas",
                   "eta_hat", "hat_riemann", "projective_invariance_check",
                   "projective_ricci", "s_closed_residual", "s_curvature",
                   "weyl_hat"),
    "finsler": ("FinslerMetric", "RandersData", "cartan_torsion", "chi_cartan",
                "fundamental_tensor", "induced_spray", "mean_cartan"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{mod}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
