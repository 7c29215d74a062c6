"""Command-line front end: list the spray zoo, evaluate quantities, verify.

Exit codes: 0 on success, 1 when a residual exceeds its tolerance, 2 on bad
input (unparseable expressions, unknown families, malformed flags).  JSON
reports are canonical and deterministic for a fixed configuration and seed;
timing is shown only in text output so it never perturbs report bytes.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from . import curvature as cv
from . import exprdsl
from . import projective as pj
from . import report
from . import spray_core as sc
from . import verify
from .jets import JetDomainError
from .spray_core import CrossCheckError

DEFAULT_SIGMAS = ["1", "exp(x1)", "1+0.5*x1^2"]

_INT_PARAMS = {"n"}
_FLOAT_PARAMS = {"kappa", "box"}


class InputError(ValueError):
    pass


def _parse_family_spec(spec: str):
    """Parse "name" or "name(key=value, ...)" into a family call."""
    spec = spec.strip()
    if "(" not in spec:
        return spec, {}
    if not spec.endswith(")"):
        raise InputError(f"malformed spray spec {spec!r} (missing ')')")
    name, body = spec[:-1].split("(", 1)
    params = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise InputError(f"malformed parameter {item!r} in spray spec "
                             "(expected key=value)")
        key, val = item.split("=", 1)
        params[key.strip()] = val.strip()
    return name.strip(), params


def _build_spray(name: str, params: dict) -> sc.SprayChart:
    kwargs = {}
    metric = {}
    oneform = {}
    for key, val in params.items():
        if key in _INT_PARAMS:
            kwargs[key] = int(val)
        elif key in _FLOAT_PARAMS:
            kwargs[key] = float(val)
        elif key[0] in "ga" and len(key) == 3 and key[1:].isdigit():
            metric[(int(key[1]), int(key[2]))] = val
        elif key[0] == "b" and key[1:].isdigit():
            oneform[int(key[1:])] = val
        elif key in {"A", "B", "C", "D", "f", "file"}:
            kwargs[key] = val
        else:
            raise InputError(f"unknown parameter {key!r} for family {name!r}")
    if name == "riemannian":
        if not metric:
            raise InputError("riemannian needs metric entries g11, g12, ...")
        kwargs["g"] = metric
        kwargs.setdefault("n", max(max(i, j) for i, j in metric))
    elif name == "randers":
        if not metric:
            raise InputError("randers needs metric entries a11, a12, ...")
        kwargs["a"] = metric
        kwargs["b"] = oneform
        kwargs.setdefault("n", max(max(i, j) for i, j in metric))
    elif metric or oneform:
        raise InputError(f"family {name!r} takes no metric entries")
    return _make_family(name, **kwargs)


def _make_family(name: str, **kwargs) -> sc.SprayChart:
    try:
        return sc.make_family(name, **kwargs)
    except (TypeError, ValueError) as e:
        raise InputError(str(e)) from None


def _resolve_spray(args) -> tuple:
    """Returns (spray, sigma list from file or None, Finsler metric or None)."""
    if bool(args.spray) == bool(args.file):
        raise InputError("give exactly one of --spray or --file")
    sigma = None
    if args.file:
        doc = exprdsl.load_spray_file(args.file)
        if doc.sigma is not None:
            sigma = [exprdsl.pretty(doc.sigma)]
        spray = _make_family("custom", doc=doc)
    else:
        spray = _build_spray(*_parse_family_spec(args.spray))
    return spray, sigma, spray.metric


def _volumes(sigmas, spray):
    vols = []
    for s in sigmas:
        try:
            v = pj.VolumeForm(s, spray.n)
            v.check_positive(spray.domain)
        except (exprdsl.ExprSyntaxError, ValueError, JetDomainError) as e:
            raise InputError(f"bad volume density {s!r}: {e}") from None
        vols.append(v)
    return vols


def _config_echo(args, command, sigmas):
    return {
        "command": command,
        "spray": args.spray,
        "file": args.file,
        "sigma": list(sigmas),
        "points": args.points,
        "seed": args.seed,
        "order": args.order,
        "tol": {k: v for k, v in sorted((args.tol or {}).items())},
        "format": args.format,
    }


def _emit(doc: dict, args, elapsed: float) -> None:
    if args.format == "text":
        doc = dict(doc)
        doc["wall_clock_text"] = f"{elapsed:.2f} s"
        text = report.rows_as_text(doc)
    else:
        text = report.canonical_json(doc) + "\n"
    if args.out:
        report.write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def cmd_list(args) -> int:
    lines = ["available spray families:"]
    for name, (desc, params) in sc.FAMILIES.items():
        lines.append(f"  {name:<12} {desc}")
        lines.append(f"  {'':<12}   parameters: {params}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _document(args, command, sigmas, spray, points, rows, pt_docs) -> dict:
    cls = cv.classify(spray, points, verify.FLAG_TOL)
    return {
        "version": __version__,
        "config": _config_echo(args, command, sigmas),
        "rows": [r.as_dict() for r in rows],
        "points": pt_docs,
        "classification": {
            "isotropy_residual": cls.isotropy_residual,
            "scalar_residual": cls.scalar_residual,
            "chi_residual": cls.chi_residual,
            "isotropic": cls.isotropic,
            "scalar_curvature": cls.scalar_curvature,
            "chi_zero": cls.chi_zero,
        },
        "wall_clock_seconds": None,
    }


def cmd_evaluate(args) -> int:
    t0 = time.time()
    spray, file_sigma, _metric = _resolve_spray(args)
    sigmas = args.sigma or file_sigma or ["1"]
    vols = _volumes(sigmas, spray)
    points = sc.sample_points(spray, args.points, args.seed)
    order = args.order if args.order is not None else 4
    if order < 3:
        raise InputError("--order below 3 cannot produce the curvature tables")
    pt_docs = []
    for p in points:
        q = {
            "G": spray.coefficients(p).tolist(),
            "N": sc.nonlinear_connection(spray, p).components.tolist(),
            "R": sc.riemann_two_index(spray, p).components.tolist(),
            "Ric_jl": cv.ricci_tensor(spray, p).components.tolist(),
            "Ric": cv.ricci_scalar(spray, p),
            "R_scalar": cv.curvature_scalar(spray, p),
            "chi": cv.chi_definition(spray, p).components.tolist(),
            "T": cv.t_curvature(spray, p).components.tolist(),
            "W": cv.weyl(spray, p).components.tolist(),
            "S": {v.label: float(pj.s_curvature(spray, v, p)) for v in vols},
        }
        if order >= 4:
            q["eta"] = cv.eta(spray, p).components.tolist()
        pt_docs.append({"x": list(p.x), "y": list(p.y), "quantities": q})
    doc = _document(args, "evaluate", sigmas, spray, points, [], pt_docs)
    _emit(doc, args, time.time() - t0)
    return 0


def cmd_verify(args) -> int:
    t0 = time.time()
    spray, file_sigma, _metric = _resolve_spray(args)
    sigmas = args.sigma or file_sigma or DEFAULT_SIGMAS
    vols = _volumes(sigmas, spray)
    points = sc.sample_points(spray, args.points, args.seed)
    rows = verify.run_suite(spray, points, vols, tolerances=args.tol)
    doc = _document(args, "verify", sigmas, spray, points, rows,
                    [{"x": list(p.x), "y": list(p.y)} for p in points])
    _emit(doc, args, time.time() - t0)
    failed = [r for r in rows if r.passed is False]
    if failed:
        for r in failed:
            sys.stderr.write(f"FAIL {r.id}: max residual {r.max_residual:.3e} "
                             f"exceeds {r.tolerance:.0e} "
                             f"(point {r.argmax_point})\n")
        return 1
    return 0


class _TolAction(argparse.Action):
    def __call__(self, parser, ns, value, option_string=None):
        d = getattr(ns, self.dest) or {}
        if "=" not in value:
            parser.error(f"--tol expects id=value, got {value!r}")
        key, val = value.split("=", 1)
        if key not in verify.TOLERANCES:
            parser.error(f"unknown tolerance id {key!r}")
        try:
            d[key] = float(val)
        except ValueError:
            parser.error(f"bad tolerance value {val!r}")
        setattr(ns, self.dest, d)


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--spray", help="zoo family spec, e.g. sphere(n=3,kappa=1)")
    p.add_argument("--file", help="spray-definition file")
    p.add_argument("--sigma", action="append",
                   help="volume density expression in x (repeatable)")
    p.add_argument("--points", type=int, default=50,
                   help="sample point count (default 50)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--order", type=int, default=None,
                   help="jet order for evaluate tables (default 4; verify "
                        "chooses per-identity orders itself)")
    p.add_argument("--tol", action=_TolAction, default=None, metavar="ID=VAL",
                   help="override one identity tolerance (repeatable)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", help="write the report to this path atomically")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spraylab",
        description="curvature quantities and identity verification for "
                    "sprays on a coordinate chart")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list zoo families").set_defaults(fn=cmd_list)
    ev = sub.add_parser("evaluate", help="evaluate curvature quantities at "
                                         "seeded sample points")
    _add_run_flags(ev)
    ev.set_defaults(fn=cmd_evaluate)
    vf = sub.add_parser("verify", help="run the identity-residual suite")
    _add_run_flags(vf)
    vf.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("evaluate", "verify") and args.points < 1:
        sys.stderr.write("error: --points must be at least 1\n")
        return 2
    try:
        return args.fn(args)
    except (InputError, exprdsl.ExprSyntaxError, FileNotFoundError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except CrossCheckError as e:
        sys.stderr.write(f"tolerance failure: {e}\n")
        return 1
    except (JetDomainError, exprdsl.ExprDomainError) as e:
        sys.stderr.write(f"domain error: {e}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
