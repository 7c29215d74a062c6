"""Deterministic report documents: canonical JSON and fixed-width text.

The JSON form is canonical so that identical configurations produce
byte-identical files: keys are sorted, floats are printed with 17 significant
digits, and no volatile data (timing) enters the document.  Files are written
atomically (temp file + rename) so a failed run never leaves a partial
report.
"""

from __future__ import annotations

import math
import os
import tempfile


class NonFiniteError(ValueError):
    """A NaN or infinite value reached a JSON report; `path` locates it."""

    def __init__(self, value: float):
        super().__init__(value)
        self.value, self.path = value, ""

    def __str__(self):
        return (f"non-finite value {self.value} at {self.path.lstrip('.')}; "
                "the JSON report cannot hold it")


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise NonFiniteError(x)
    if x.is_integer() and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def canonical_json(obj) -> str:
    """Render a JSON document with sorted keys and fixed float formatting.

    A NaN or infinite value raises NonFiniteError with its path in the
    document (`_locate`), found after the fact so that rendering carries no
    paths."""
    try:
        return _render(obj, 0)
    except NonFiniteError as e:
        e.path = _locate(obj)
        raise


def _render(obj, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
        return f'"{out}"'
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_fmt_float(v) if type(v) is float else _render(v, indent + 1)
                 for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            items.append(f'{inner}"{k}": {_render(obj[k], indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _locate(obj) -> str:
    """The path of the first non-finite float in rendering order, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else ""
    if isinstance(obj, dict):
        parts = ((f".{k}", obj[k]) for k in sorted(obj))
    elif isinstance(obj, (list, tuple)):
        parts = ((f"[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for part, v in parts:
        path = _locate(v)
        if path is not None:
            return part + path
    return None


def write_atomic(path: str, text: str):
    """Write the full text, then rename into place (no partial files)."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".report-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def rows_as_text(doc: dict) -> str:
    """Fixed-width table rendering of a report document."""
    lines = []
    cfg = doc.get("config", {})
    lines.append(f"spraylab {doc.get('version', '?')}")
    for key in sorted(cfg):
        lines.append(f"  {key}: {cfg[key]}")
    cls = doc.get("classification")
    if cls:
        lines.append("classification:")
        for key in sorted(cls):
            lines.append(f"  {key}: {cls[key]}")
    rows = doc.get("rows", [])
    if rows:
        idw = max(len(r["id"]) for r in rows) + 2
        lines.append("")
        lines.append(f"{'identity':<{idw}}{'max residual':>14}{'tolerance':>12}"
                     f"{'status':>8}")
        lines.append("-" * (idw + 34))
        for r in rows:
            if r["pass"] is None:
                status, res = "n/a", "-"
            else:
                status = "pass" if r["pass"] else "FAIL"
                res = f"{r['max_residual']:.3e}"
            lines.append(f"{r['id']:<{idw}}{res:>14}{r['tolerance']:>12.0e}"
                         f"{status:>8}")
    pts = doc.get("points", [])
    for i, pt in enumerate(pts):
        q = pt.get("quantities")
        if q is None:
            continue
        lines.append("")
        lines.append(f"point {i}: x = {pt['x']}, y = {pt['y']}")
        for key in sorted(q):
            lines.append(f"  {key}: {q[key]}")
    if doc.get("wall_clock_text"):
        lines.append("")
        lines.append(f"wall clock: {doc['wall_clock_text']}")
    return "\n".join(lines) + "\n"
