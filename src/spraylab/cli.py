"""Command-line front end: list the spray zoo, evaluate quantities, verify.

Exit codes: 0 on success, 1 when a residual exceeds its tolerance, 2 on bad
input (unparseable expressions, unknown families, malformed flags).  JSON
reports are canonical and deterministic for a fixed configuration and seed;
timing is shown only in text output so it never perturbs report bytes.
"""

from __future__ import annotations

import gc
import sys
import time

import numpy as np

from . import __version__
from . import curvature as cv
from . import exprdsl
from . import projective as pj
from . import report
from . import spray_core as sc
from .jets import JetDomainError
from .spray_core import CrossCheckError

# after numpy and spraylab's modules: imported before them, argparse (with
# gettext) raised the peak RSS of the `verify` runs by 0.15-0.4 MB
import argparse  # noqa: E402

DEFAULT_SIGMAS = pj.DEFAULT_SIGMAS

_NUMBER_PARAMS = {"n": int, "kappa": float, "box": float}


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
    """The family's spray from its CLI parameters: numbers, expressions, and
    entries gIJ (riemannian) or aIJ and bI (randers) of its metric data."""
    if name not in sc.FAMILIES:     # refused by name before any key is read
        return _make_family(name)
    letter = {"riemannian": "g", "randers": "a"}.get(name)
    kwargs, metric, oneform = {}, {}, {}
    for key, val in params.items():
        if key in _NUMBER_PARAMS:
            try:
                kwargs[key] = _NUMBER_PARAMS[key](val)
            except ValueError:
                raise InputError(f"parameter {key}={val!r} of family {name!r}: "
                                 f"expected {_NUMBER_PARAMS[key].__name__}") from None
        elif letter and key[:1] == letter and len(key) == 3 and key[1:].isdecimal():
            metric[(int(key[1]), int(key[2]))] = val
        elif name == "randers" and key[:1] == "b" and key[1:].isdecimal():
            oneform[int(key[1:])] = val
        elif key in {"A", "B", "C", "D", "f", "file"}:
            kwargs[key] = val
        else:
            raise InputError(f"unknown parameter {key!r} for family {name!r}")
    if letter:
        if not metric:
            raise InputError(f"{name} needs metric entries {letter}11, {letter}12, ...")
        kwargs[letter] = metric
        kwargs.setdefault("n", max(max(i, j) for i, j in metric))
    if name == "randers":
        kwargs["b"] = oneform
    return _make_family(name, **kwargs)


def _unreadable(what: str, e: Exception) -> InputError:
    """One line naming the spray file that could not be read, and why."""
    why = e.strerror if isinstance(e, OSError) else f"not UTF-8 (byte {e.start})"
    return InputError(f"{what}: {why or e}")


def _make_family(name: str, **kwargs) -> sc.SprayChart:
    try:
        return sc.make_family(name, **kwargs)
    except (OSError, UnicodeDecodeError) as e:       # custom(file=...)
        raise _unreadable(f"custom(file={kwargs.get('file')})", e) from None
    except (TypeError, ValueError) as e:
        raise InputError(str(e)) from None


def _resolve_spray(args) -> tuple:
    """Returns (spray, sigma list from file or None, Finsler metric or None)."""
    if bool(args.spray) == bool(args.file):
        raise InputError("give exactly one of --spray or --file")
    sigma = None
    if args.file:
        try:
            doc = exprdsl.load_spray_file(args.file)
        except (OSError, UnicodeDecodeError) as e:
            raise _unreadable(f"--file {args.file}", e) from None
        if doc.sigma is not None:
            sigma = [exprdsl.pretty(doc.sigma)]
        spray = _make_family("custom", doc=doc, label=f"--file {args.file}")
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
    # rendered for both formats: a NaN or inf fails here, named by the spray,
    # the row of a verify report, and its path
    try:
        text = report.canonical_json(doc) + "\n"
    except report.NonFiniteError as e:
        where = args.spray or f"--file {args.file}"
        if e.path.startswith(".rows["):
            where += f": row {doc['rows'][int(e.path[6:e.path.index(']')])]['id']}"
        raise InputError(f"{where}: {e}") from None
    if args.format == "text":
        doc = dict(doc)
        doc["wall_clock_text"] = f"{elapsed:.2f} s"
        text = report.rows_as_text(doc)
    if args.out:
        try:
            report.write_atomic(args.out, text)
        except OSError as e:
            raise InputError(f"--out {args.out}: {e.strerror or e}") from None
    else:
        sys.stdout.write(text)


def cmd_list(args) -> int:
    lines = ["available spray families:"]
    for name, (_, desc, params) in sc.FAMILIES.items():
        lines.append(f"  {name:<12} {desc}")
        lines.append(f"  {'':<12}   parameters: {params}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _document(args, command, sigmas, cls, rows, pt_docs) -> dict:
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
        # the top order first: the lower orders read this one frame
        top = spray.frame(p, min(order, 4))
        q = {
            "G": [g.value for g in top.G],
            "N": sc.nonlinear_connection(spray, p).tolist(),
            "R": sc.riemann_two_index(spray, p).tolist(),
            "Ric_jl": cv.ricci_tensor(spray, p).tolist(),
            "Ric": cv.ricci_scalar(spray, p),
            "R_scalar": cv.curvature_scalar(spray, p),
            "chi": cv.chi_definition(spray, p).tolist(),
            "T": cv.t_curvature(spray, p).tolist(),
            "W": cv.weyl(spray, p).tolist(),
            "S": {v.label: float(pj.s_curvature(spray, v, p)) for v in vols},
        }
        if order >= 4:
            q["eta"] = cv.eta(spray, p).tolist()
        pt_docs.append({"x": list(p.x), "y": list(p.y), "quantities": q})
    cls = cv.classify(spray, points)
    doc = _document(args, "evaluate", sigmas, cls, [], pt_docs)
    _emit(doc, args, time.time() - t0)
    return 0


def cmd_verify(args) -> int:
    from . import verify        # only this command runs the identity suite
    t0 = time.time()
    spray, file_sigma, _metric = _resolve_spray(args)
    sigmas = args.sigma or file_sigma or DEFAULT_SIGMAS
    vols = _volumes(sigmas, spray)
    points = sc.sample_points(spray, args.points, args.seed)
    runner = verify.SuiteRunner(spray, points, vols, args.tol)
    rows = runner.run()
    doc = _document(args, "verify", sigmas, runner.cls, rows,
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
        from .verify import ROWS
        if key not in {spec.id for spec in ROWS}:
            parser.error(f"unknown tolerance id {key!r}")
        try:
            d[key] = float(val)
        except ValueError:
            parser.error(f"bad tolerance value {val!r}")
        if not 0.0 < d[key] < float("inf"):     # refuses nan too
            parser.error(f"bad tolerance value {val!r} (need a finite number > 0)")
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
                   help="evaluate: 3 omits eta, 4 or more (the default 4) "
                        "adds it, below 3 exits 2; verify ignores it")
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
    if args.command in ("evaluate", "verify") and (args.points < 1 or args.seed < 0):
        bad = "--points must be at least 1" if args.points < 1 else "--seed must be >= 0"
        sys.stderr.write(f"error: {bad}\n")
        return 2
    try:
        # overflow shows up as a located non-finite value, not as warnings
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (InputError, exprdsl.ExprSyntaxError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except CrossCheckError as e:
        sys.stderr.write(f"tolerance failure: {e}\n")
        return 1
    except (JetDomainError, exprdsl.ExprDomainError) as e:
        sys.stderr.write(f"domain error: {e}\n")
        return 2


def run(argv=None):
    """The process entry point (`python -m spraylab.cli`, the `spraylab`
    script): `main`, then a normal exit with its code.  Every object still
    live dies with the process, so it is frozen first (`gc.freeze`) and the
    interpreter's exit-time collections traverse nothing; `atexit` handlers
    and the flush of stdout and stderr run as in any exit.  In-process
    callers use `main`, which leaves the collector as it is."""
    code = main(argv)
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
