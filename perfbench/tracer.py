"""Spans and counters around the entry points of each spraylab module.

``install`` replaces module functions and class attributes with wrappers that
record spans (name, start, end, parent) and counters in memory; ``restore``
puts every original back.  Only the traced child (``traced_cli.py``) calls
``install``: a process that produces end-to-end numbers never runs a wrapper.

The analysis half (``self_times``, ``layer_metrics``, ``combine``) is pure and
runs in the benchmark process on the written trace.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import types
import weakref
from functools import cached_property
from time import perf_counter

# SuiteRunner method -> suite group span
VERIFY_GROUPS = {
    "_homogeneity": "base",
    "_connection_rows": "base",
    "_four_index_rows": "four-index",
    "_bianchi_second_rows": "bianchi-second",
    "_chi_rows": "chi",
    "_weyl_t_rows": "weyl",
    "_isotropic_rows": "isotropic",
    "_s_closed_rows": "s-closed",
    "_volume_rows": "volume",
}

# spray_core entry points that get a span (hot helpers such as rel_residual
# and carrier_value are left alone)
SPRAY_CORE_ENTRIES = (
    "nonlinear_connection", "berwald_connection", "berwald_curvature",
    "riemann_two_index", "riemann_four_index", "horizontal_partial",
    "covariant_derivative_h", "sample_points", "make_family",
)

JET_OPS = (
    ("mul", ("__mul__", "__rmul__"), True),
    ("addsub", ("__add__", "__radd__", "__sub__", "__rsub__"), True),
    ("d", ("d",), False),
    ("truncated", ("truncated",), False),
    ("analytic", ("reciprocal", "sqrt", "exp", "log", "sin", "cos",
                  "absolute"), False),
)


class Tracer:
    """In-memory spans and counters of one traced process."""

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = {}
        self.jet_ops = {}        # (op, dim, order) -> calls
        self.missing = []        # hooks whose target does not exist
        self._stack = []
        self._saved = []         # (owner, attr, original) in patch order
        self._live = 0

    # -- wrappers ----------------------------------------------------------

    def bump(self, key: str, by: int = 1):
        self.counts[key] = self.counts.get(key, 0) + by

    def span(self, name: str, fn, outer_only: bool = False, after=None):
        """Wrap `fn` in a span; `outer_only` skips calls nested in itself."""
        spans, stack = self.spans, self._stack
        depth = [0]

        def wrapper(*args, **kwargs):
            if outer_only and depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            i = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][2] = perf_counter()
                depth[0] -= 1
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def jet_op(self, op: str, fn, by_result: bool):
        """Count a jet operation by (dim, order): of the result for binary
        operations (the kernel size after alignment), else of the operand."""
        ops = self.jet_ops

        if by_result:
            def wrapper(a, *args):
                r = fn(a, *args)
                k = (op, r.dim, r.order)
                ops[k] = ops.get(k, 0) + 1
                return r
        else:
            def wrapper(a, *args):
                k = (op, a.dim, a.order)
                ops[k] = ops.get(k, 0) + 1
                return fn(a, *args)
        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, make):
        """Replace owner.attr by make(original), and every alias of a module
        function in the other loaded spraylab modules."""
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                self.missing.append(f"{owner.__qualname__}.{attr}")
                return
            original = owner.__dict__[attr]
        elif not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        else:
            original = getattr(owner, attr)
        wrapped = make(original)
        targets = [(owner, attr)]
        if isinstance(owner, types.ModuleType):
            for mod in list(sys.modules.values()):
                if (mod is owner or not isinstance(mod, types.ModuleType)
                        or not mod.__name__.startswith("spraylab")):
                    continue
                targets += [(mod, k) for k, v in vars(mod).items()
                            if v is original]
        for o, a in targets:
            self._saved.append((o, a, original))
            setattr(o, a, wrapped)

    def restore(self):
        """Put back every attribute replaced by `patch`, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [s + [self.run_id] for s in self.spans],
            "counts": dict(self.counts),
            "jet_ops": {f"{op}.d{dim}o{order}": n
                        for (op, dim, order), n in sorted(self.jet_ops.items())},
            "missing": self.missing,
        }

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh)


def _public_functions(owner):
    """Plain public functions defined directly on a module or class."""
    if isinstance(owner, types.ModuleType):
        return [k for k, v in vars(owner).items()
                if inspect.isfunction(v) and not k.startswith("_")
                and v.__module__ == owner.__name__]
    return [k for k, v in vars(owner).items()
            if inspect.isfunction(v) and not k.startswith("_")]


def _public_classes(mod):
    return [v for k, v in vars(mod).items()
            if isinstance(v, type) and not k.startswith("_")
            and v.__module__ == mod.__name__]


def install(tr: Tracer):
    """Wrap the entry points of every spraylab layer; undo with tr.restore()."""
    from spraylab import (cli, curvature, exprdsl, finsler, jets, projective,
                          report, spray_core, verify)

    # jets: counted, never timed per call
    for op, names, by_result in JET_OPS:
        for name in names:
            tr.patch(jets.Jet, name,
                     lambda fn, op=op, r=by_result: tr.jet_op(op, fn, r))

    tr.patch(exprdsl, "evaluate",
             lambda fn: tr.span("exprdsl.evaluate", fn, outer_only=True))

    # spray_core: frame cache, frame builds, tensor fields, cov_h
    Frame, SprayChart = spray_core.Frame, spray_core.SprayChart
    deformed = getattr(projective, "DeformedSpray", None)
    if deformed is None:
        tr.missing.append("projective.DeformedSpray")
        deformed = ()

    def on_frame_built(_result, frame, spray, *args, **kwargs):
        tr.bump("spray_core.frames_built")
        if isinstance(spray, deformed):
            tr.bump("projective.deformed_frames_built")
        tr._live += 1
        if tr._live > tr.counts.get("spray_core.frames_live_max", 0):
            tr.counts["spray_core.frames_live_max"] = tr._live
        weakref.finalize(frame, _dec_live, tr)

    tr.patch(Frame, "__init__",
             lambda fn: tr.span("spray_core.frame_build", fn,
                                after=on_frame_built))

    def frame_calls(fn):
        def wrapper(*args, **kwargs):
            built = tr.counts.get("spray_core.frames_built", 0)
            fr = fn(*args, **kwargs)
            tr.bump("spray_core.frame.calls")
            if tr.counts.get("spray_core.frames_built", 0) == built:
                tr.bump("spray_core.frame.hits")
            return fr
        return wrapper

    tr.patch(SprayChart, "frame", frame_calls)
    for name, value in list(vars(Frame).items()):
        if isinstance(value, cached_property):
            tr.patch(value, "func",
                     lambda fn, n=name: tr.span(f"spray_core.tensor.{n}", fn))
    tr.patch(Frame, "cov_h", lambda fn: tr.span("spray_core.cov_h", fn))

    def hpart_calls(fn):
        def wrapper(*args, **kwargs):
            tr.bump("spray_core.hpart.calls")
            return fn(*args, **kwargs)
        return wrapper

    tr.patch(Frame, "hpart", hpart_calls)
    tr.patch(spray_core, "tensor_values",
             lambda fn: tr.span("spray_core.tensor_values", fn))
    for name in SPRAY_CORE_ENTRIES:
        tr.patch(spray_core, name,
                 lambda fn, n=name: tr.span(f"spray_core.{n}", fn))

    # curvature, projective, finsler: every public function and method
    for mod in (curvature, projective, finsler):
        layer = mod.__name__.rsplit(".", 1)[-1]
        for name in _public_functions(mod):
            tr.patch(mod, name,
                     lambda fn, s=f"{layer}.{name}": tr.span(s, fn))
        for cls in _public_classes(mod):
            for name in _public_functions(cls):
                tr.patch(cls, name,
                         lambda fn, s=f"{layer}.{cls.__name__}.{name}":
                         tr.span(s, fn))

    # verify: suite group spans and the row count
    for method, group in VERIFY_GROUPS.items():
        tr.patch(verify.SuiteRunner, method,
                 lambda fn, g=group: tr.span(f"verify.{g}", fn))
    tr.patch(verify, "run_suite",
             lambda fn: tr.span("verify.run_suite", fn,
                                after=lambda rows, *a, **k:
                                tr.bump("verify.rows", len(rows))))

    # report and cli
    tr.patch(report, "canonical_json",
             lambda fn: tr.span("report.render", fn, outer_only=True))
    tr.patch(report, "rows_as_text", lambda fn: tr.span("report.render", fn))
    tr.patch(report, "write_atomic",
             lambda fn: tr.span("report.write", fn,
                                after=lambda _r, path, text:
                                tr.bump("report.bytes",
                                        len(text.encode("utf-8")))))
    tr.patch(cli, "main", lambda fn: tr.span("cli.main", fn))


def _dec_live(tr: Tracer):
    tr._live -= 1


# -- analysis of a written trace ----------------------------------------------

def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, (_name, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


# per-layer metric -> (kind, span name or prefix); kinds: "self" sums self
# time over spans whose name starts with the prefix, "total" sums durations
SPAN_METRICS = {
    "exprdsl.evaluate_s": ("self", "exprdsl.evaluate"),
    "spray_core.s": ("self", "spray_core."),
    "spray_core.frame_build_s": ("self", "spray_core.frame_build"),
    "spray_core.tensor_s": ("self", "spray_core.tensor."),
    "spray_core.cov_h_s": ("self", "spray_core.cov_h"),
    "spray_core.tensor_values_s": ("self", "spray_core.tensor_values"),
    "curvature.s": ("self", "curvature."),
    "projective.s": ("self", "projective."),
    "finsler.s": ("self", "finsler."),
    "finsler.chi_cartan_s": ("total", "finsler.chi_cartan"),
    "report.render_s": ("total", "report.render"),
    "report.write_s": ("total", "report.write"),
    "cli.self_s": ("self", "cli.main"),
}
SPAN_METRICS.update({f"verify.{g}_s": ("total", f"verify.{g}")
                     for g in dict.fromkeys(VERIFY_GROUPS.values())})

# per-layer metric -> span name whose calls it counts
CALL_METRICS = {
    "exprdsl.evaluate.calls": "exprdsl.evaluate",
    "spray_core.cov_h.calls": "spray_core.cov_h",
    "curvature.classify.calls": "curvature.classify",
    "projective.deform.calls": "projective.deform",
}

COUNTERS = ("spray_core.frame.calls", "spray_core.frame.hits",
            "spray_core.frames_built", "spray_core.frames_live_max",
            "spray_core.hpart.calls", "projective.deformed_frames_built",
            "verify.rows", "report.bytes")

MAX_KEYS = {"spray_core.frames_live_max"}


def _matches(name: str, pattern: str) -> bool:
    return name.startswith(pattern) if pattern.endswith(".") else name == pattern


def layer_metrics(trace: dict) -> dict:
    """Raw per-layer numbers of one traced CLI run (see `combine`)."""
    spans = trace["spans"]
    selfs = self_times(spans)
    out = {}
    for metric, (kind, pattern) in SPAN_METRICS.items():
        total = 0.0
        for s, own in zip(spans, selfs):
            if _matches(s[0], pattern):
                total += own if kind == "self" else s[2] - s[1]
        out[metric] = total
    for metric, name in CALL_METRICS.items():
        out[metric] = sum(1 for s in spans if s[0] == name)
    for key in COUNTERS:
        out[key] = trace["counts"].get(key, 0)
    for op, _names, _by_result in JET_OPS:
        out[f"jets.{op}.calls"] = sum(
            n for k, n in trace["jet_ops"].items() if k.split(".")[0] == op)
    return out


def combine(raws) -> dict:
    """Per-layer metrics of one sample from the raw numbers of its CLI runs:
    sums, except maxima for MAX_KEYS, and the frame-cache hit ratio."""
    out = {}
    for key in raws[0]:
        values = [r[key] for r in raws]
        out[key] = max(values) if key in MAX_KEYS else sum(values)
    calls = out.get("spray_core.frame.calls", 0)
    out["spray_core.frame_hit_ratio"] = (
        out.pop("spray_core.frame.hits", 0) / calls if calls else 0.0)
    return out


def median_metrics(samples) -> dict:
    """Median over samples of each metric (counts repeat exactly)."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
