"""Workload definitions and the metric specification of the benchmark.

Each workload is a fixed list of `spraylab` CLI invocations.  The sampling
seed is the only input that varies between runs: it is passed to the CLI as
``--seed``.  ``spec()`` is the single source of ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

# the CLI specs of the zoo sprays; the 2-D ones are the acceptance sprays of
# tests/test_acceptance.py (A_CURVED, B_SMALL, EX72)
SPHERE4 = "sphere(n=4,kappa=1)"
SPHERE3 = "sphere(n=3,kappa=1)"
FLAT2 = "flat(n=2)"
RIEMANNIAN2 = "riemannian(g11=1+x2^2,g22=1+x1^2,g12=x1*x2/2)"
EXAMPLE72 = "example72(A=x1,B=x2^2,C=x1*x2,D=1+x1,f=x1*x2)"
RANDERS2 = ("randers(a11=1+x2^2,a22=1+x1^2,a12=x1*x2/2,"
            "b1=0.2*x2,b2=-0.1*x1,box=0.8)")


@dataclass(frozen=True)
class Invocation:
    """One CLI run: `spraylab <command> --spray ... --points P --seed S`.

    An empty `sigmas` leaves the CLI's default volume densities."""
    command: str
    spray: str
    points: int
    sigmas: tuple = ()
    extra: tuple = ()

    def argv(self, seed: int, out: str) -> list:
        args = [self.command, "--spray", self.spray]
        for s in self.sigmas:
            args += ["--sigma", s]
        return args + list(self.extra) + [
            "--points", str(self.points), "--seed", str(seed), "--out", out]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple

    @property
    def points(self) -> int:
        return sum(inv.points for inv in self.invocations)


WORKLOADS = {w.name: w for w in (
    Workload(
        "verify-sphere4",
        "dim-8 order-5 jets, most time in the four-index group "
        "(bianchi-second, object-array cov_h): value-only tensor work and "
        "jet kernel speed-ups show here",
        (Invocation("verify", SPHERE4, 4),)),
    Workload(
        "verify-zoo2d",
        "the four 2-D acceptance sprays: dim-4 jets where per-op overhead, "
        "deformed-spray frames and DSL frame builds dominate; volume is the "
        "largest group, bianchi-second is smaller than on sphere4",
        (Invocation("verify", FLAT2, 10),
         Invocation("verify", RIEMANNIAN2, 10),
         Invocation("verify", EXAMPLE72, 10),
         Invocation("verify", RANDERS2, 10))),
    Workload(
        "evaluate-sphere3",
        "per-point evaluate with no identity suite: frames of orders 1-4 at "
        "every point stay cached and the report grows with the point count, "
        "so memory growth and cache policy show",
        (Invocation("evaluate", SPHERE3, 120, sigmas=("1", "exp(x1)"),
                    extra=("--order", "4")),)),
)}

RUN_SECONDS = 36

END_TO_END = [
    {"name": "points_per_s", "unit": "points/s", "better": "higher",
     "bound": 0.2},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

_S, _N = "s", "count"
PER_LAYER = [
    # jets: op counts (exact) and kernel cost with warm tables
    ("jets.mul.calls", _N, "lower"),
    ("jets.addsub.calls", _N, "lower"),
    ("jets.d.calls", _N, "lower"),
    ("jets.truncated.calls", _N, "lower"),
    ("jets.analytic.calls", _N, "lower"),
    ("jets.mul_us.d4o3", "us", "lower"),
    ("jets.mul_us.d6o4", "us", "lower"),
    ("jets.mul_us.d8o4", "us", "lower"),
    ("jets.mul_us.d8o5", "us", "lower"),
    ("jets.d_us.d8o4", "us", "lower"),
    # exprdsl
    ("exprdsl.evaluate.calls", _N, "lower"),
    ("exprdsl.evaluate_s", _S, "lower"),
    # spray_core
    ("spray_core.s", _S, "lower"),
    ("spray_core.frame.calls", _N, "lower"),
    ("spray_core.frame_hit_ratio", "ratio", "higher"),
    ("spray_core.frames_built", _N, "lower"),
    ("spray_core.frames_live_max", _N, "lower"),
    ("spray_core.frame_build_s", _S, "lower"),
    ("spray_core.tensor_s", _S, "lower"),
    ("spray_core.cov_h.calls", _N, "lower"),
    ("spray_core.cov_h_s", _S, "lower"),
    ("spray_core.hpart.calls", _N, "lower"),
    ("spray_core.tensor_values_s", _S, "lower"),
    # curvature, projective, finsler
    ("curvature.s", _S, "lower"),
    ("curvature.classify.calls", _N, "lower"),
    ("projective.s", _S, "lower"),
    ("projective.deform.calls", _N, "lower"),
    ("projective.deformed_frames_built", _N, "lower"),
    ("finsler.s", _S, "lower"),
    ("finsler.chi_cartan_s", _S, "lower"),
    # verify: suite group spans
    ("verify.base_s", _S, "lower"),
    ("verify.four-index_s", _S, "lower"),
    ("verify.bianchi-second_s", _S, "lower"),
    ("verify.chi_s", _S, "lower"),
    ("verify.weyl_s", _S, "lower"),
    ("verify.isotropic_s", _S, "lower"),
    ("verify.s-closed_s", _S, "lower"),
    ("verify.volume_s", _S, "lower"),
    ("verify.rows", _N, "higher"),
    # report, cli, tracing itself, code size
    ("report.render_s", _S, "lower"),
    ("report.write_s", _S, "lower"),
    ("report.bytes", "bytes", "lower"),
    ("cli.self_s", _S, "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("src.lines", "lines", "lower"),
]


def spec() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
