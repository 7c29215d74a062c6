"""The package surface: lazy imports per command, the public names, tensor
results as plain arrays, the semantics of the plain record types, and no
unused imports in the sources."""

import ast
import copy
import importlib
import json
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import spraylab
from spraylab import curvature as cv
from spraylab import exprdsl
from spraylab import finsler as fl
from spraylab import projective as pj
from spraylab import spray_core as sc
from spraylab.curvature import Classification
from spraylab.exprdsl import (Bin, Call, Neg, Num, Pow, SourceSpan,
                              SprayFileDoc, Var, _Token)
from spraylab.spray_core import EPS_Y, Box, PointTM
from spraylab.verify import Row, RowSpec

SRC = Path(__file__).resolve().parent.parent / "src"
RANDERS2 = ("randers(a11=1+x2^2,a22=1+x1^2,a12=x1*x2/2,b1=0.2*x2,"
            "b2=-0.1*x1,box=0.8)")

# the names `spraylab/__init__.py` imported eagerly, by defining module
PUBLIC = {
    "jets": ("Jet", "JetDomainError", "eval_derivatives", "lift_variable"),
    "spray_core": ("Box", "PointTM", "SprayChart", "berwald_connection",
                   "berwald_curvature", "make_family", "nonlinear_connection",
                   "riemann_four_index", "riemann_two_index", "sample_points"),
    "curvature": ("chi_definition", "chi_from_t", "chi_local", "chi_trace",
                  "classify", "eta", "ricci_scalar", "ricci_tensor",
                  "t_curvature", "weyl"),
    "projective": ("DeformedSpray", "VolumeForm", "deform", "douglas",
                   "eta_hat", "hat_riemann", "projective_invariance_check",
                   "projective_ricci", "s_closed_residual", "s_curvature",
                   "weyl_hat"),
    "finsler": ("FinslerMetric", "RandersData", "cartan_torsion", "chi_cartan",
                "fundamental_tensor", "induced_spray", "mean_cartan"),
}


def loaded_modules(code: str, package="spraylab") -> set:
    """The modules a fresh interpreter holds after running `code`: those of
    `package`, or all of them for None."""
    prog = f"import sys, json\n{code}\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", prog], env=env, check=True,
                         capture_output=True, text=True).stdout
    mods = set(json.loads(out.splitlines()[-1]))
    return mods if package is None else {m for m in mods
                                         if m.split(".")[0] == package}


def cli_modules(*argv) -> set:
    """Every module a fresh interpreter holds after one CLI run."""
    args = [*argv, "--points", "1", "--out", os.devnull]
    return loaded_modules(f"from spraylab import cli\ncli.main({args!r})", None)


def test_import_spraylab_loads_no_submodule():
    assert loaded_modules("import spraylab") == {"spraylab"}


def test_each_command_loads_only_what_it_runs():
    evaluate = cli_modules("evaluate", "--spray", "sphere(n=3)")
    assert "spraylab.spray_core" in evaluate
    assert not evaluate & {"spraylab.verify", "spraylab.finsler"}
    flat = cli_modules("verify", "--spray", "flat(n=2)")
    assert "spraylab.verify" in flat and "spraylab.finsler" not in flat
    randers = cli_modules("verify", "--spray", RANDERS2)
    assert "spraylab.finsler" in randers
    # the sample stream is drawn without numpy.random and what it imports
    for mods in (evaluate, flat, randers):
        assert not mods & {"numpy.random", "secrets", "hashlib", "_hashlib"}


def test_public_names_are_unchanged():
    names = [name for names in PUBLIC.values() for name in names]
    assert spraylab.__all__ == names
    assert set(names) <= set(dir(spraylab))
    for mod, mod_names in PUBLIC.items():
        module = importlib.import_module(f"spraylab.{mod}")
        assert getattr(spraylab, mod) is module
        for name in mod_names:
            ns = {}
            exec(f"from spraylab import {name}", ns)
            assert ns[name] is getattr(module, name), name
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        spraylab.nosuch
    ns = {}
    exec("from spraylab import *", ns)
    assert set(names) <= set(ns)


# every public tensor operation -> (a call on (spray, volume form, point), and
# for the frame-backed ones the frame table that it returns itself, or None)
def _base(table):
    return lambda G, dV, p: table(G.frame(p, 1))


def _hat(table):
    return lambda G, dV, p: table(pj.deform(G, dV).frame(p, 1))


FIELD = sc.TensorField(np.array(["x1*y2", "y1^2"], dtype=object), ("down",), 2)
TENSOR_OPERATIONS = {
    "nonlinear_connection": (lambda G, dV, p: sc.nonlinear_connection(G, p),
                             _base(lambda fr: fr.N_values)),
    "berwald_connection": (lambda G, dV, p: sc.berwald_connection(G, p),
                           _base(lambda fr: fr.Gamma_values)),
    "berwald_curvature": (lambda G, dV, p: sc.berwald_curvature(G, p),
                          _base(lambda fr: fr.B[0])),
    "riemann_two_index": (lambda G, dV, p: sc.riemann_two_index(G, p),
                          _base(lambda fr: fr.R2_table[0])),
    "riemann_four_index": (lambda G, dV, p: sc.riemann_four_index(G, p),
                           _base(lambda fr: fr.R4[0])),
    "covariant_derivative_h": (
        lambda G, dV, p: sc.covariant_derivative_h(FIELD, G, p), None),
    "chi_definition": (lambda G, dV, p: cv.chi_definition(G, p),
                       _base(lambda fr: fr.chi[0])),
    "chi_trace": (lambda G, dV, p: cv.chi_trace(G, p), None),
    "chi_local": (lambda G, dV, p: cv.chi_local(G, p), None),
    "chi_from_t": (lambda G, dV, p: cv.chi_from_t(G, p), None),
    "ricci_tensor": (lambda G, dV, p: cv.ricci_tensor(G, p),
                     _base(lambda fr: fr.ric_jl)),
    "t_curvature": (lambda G, dV, p: cv.t_curvature(G, p),
                    _base(lambda fr: fr.T[0])),
    "weyl[direct]": (lambda G, dV, p: cv.weyl(G, p, "direct"), None),
    "weyl[via_chi]": (lambda G, dV, p: cv.weyl(G, p, "via_chi"), None),
    "eta": (lambda G, dV, p: cv.eta(G, p), None),
    "chi_via_s[vertical-first]": (
        lambda G, dV, p: pj.chi_via_s(G, dV, p, "vertical-first"), None),
    "chi_via_s[horizontal-first]": (
        lambda G, dV, p: pj.chi_via_s(G, dV, p, "horizontal-first"), None),
    "hat_riemann[direct]": (lambda G, dV, p: pj.hat_riemann(G, dV, p, "direct"),
                            _hat(lambda fr: fr.R2_table[0])),
    "hat_riemann[formula]": (
        lambda G, dV, p: pj.hat_riemann(G, dV, p, "formula"), None),
    "projective_ricci[ric_jl]": (
        lambda G, dV, p: pj.projective_ricci(G, dV, p)["ric_jl"],
        _hat(lambda fr: fr.ric_jl)),
    "projective_ricci[h_jl]": (
        lambda G, dV, p: pj.projective_ricci(G, dV, p)["h_jl"], None),
    "douglas": (lambda G, dV, p: pj.douglas(G, dV, p), _hat(lambda fr: fr.B[0])),
    "weyl_hat": (lambda G, dV, p: pj.weyl_hat(G, dV, p), _hat(lambda fr: fr.T[0])),
    "eta_hat": (lambda G, dV, p: pj.eta_hat(G, dV, p), None),
    "fundamental_tensor": (lambda G, dV, p: fl.fundamental_tensor(G.metric, p),
                           None),
    "cartan_torsion": (lambda G, dV, p: fl.cartan_torsion(G.metric, p), None),
    "mean_cartan": (lambda G, dV, p: fl.mean_cartan(G.metric, p), None),
    "chi_cartan": (lambda G, dV, p: fl.chi_cartan(G.metric, p), None),
}


@pytest.fixture(scope="module")
def randers_setup():
    """A spray with a metric, so that every operation applies to it."""
    G = sc.make_family("randers", a={(1, 1): "1+x2^2", (2, 2): "1+x1^2",
                                     (1, 2): "x1*x2/2"},
                       b={1: "0.2*x2", 2: "-0.1*x1"}, n=2, box=0.8)
    return G, pj.VolumeForm("exp(x1)", 2), PointTM((0.1, -0.2), (0.7, 0.4))


@pytest.mark.parametrize("name", TENSOR_OPERATIONS)
def test_tensor_operations_return_plain_arrays(name, randers_setup):
    op, table = TENSOR_OPERATIONS[name]
    out = op(*randers_setup)
    assert type(out) is np.ndarray and out.dtype == float and out.ndim >= 1
    if table is not None:       # the frame's own cached table, not a copy
        assert out is table(*randers_setup)
        assert not out.flags.writeable


def _unused_imports(path: Path) -> list:
    """The names that top-level imports of a module bind and that nothing in
    it reads: no Name or attribute base in the code, nor in an annotation
    given as a string."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        notes = (getattr(node, "annotation", None), getattr(node, "returns", None))
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used.update(n.id for n in ast.walk(ast.parse(note.value))
                            if isinstance(n, ast.Name))
    return sorted(f"{path.name}:{line}: {name}" for name, line in bound.items()
                  if name not in used)


def test_sources_have_no_unused_imports():
    assert [u for path in sorted((SRC / "spraylab").glob("*.py"))
            for u in _unused_imports(path)] == []


def test_frozen_records_compare_and_hash_by_value():
    span = SourceSpan(0, 2, 1, 1)
    one = Num(1.0, span)
    pairs = [
        (PointTM((0, 1), (1, 0)), PointTM((0.0, 1.0), (1.0, 0.0))),
        (Box((-1.0,), (1.0,)), Box((-1.0,), (1.0,))),
        (span, SourceSpan(0, 2, 1, 1)),
        (one, Num(1.0, SourceSpan(0, 2, 1, 1))),
        (Var("x1", 0, span), Var("x1", 0, span)),
        (Neg(one, span), Neg(Num(1.0, span), span)),
        (Bin("+", one, one, span), Bin("+", one, Num(1.0, span), span)),
        (Pow(one, 2, span), Pow(one, 2, span)),
        (Call("exp", one, span), Call("exp", one, span)),
        (_Token("num", "1", span), _Token("num", "1", span)),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
        assert not a != b
    assert Num(1.0, span) != Num(2.0, span)
    assert Num(1.0, span) != Var("x1", 0, span)     # same fields, other type
    assert repr(span) == "SourceSpan(start=0, end=2, line=1, col=1)"


@pytest.mark.parametrize("record, field", [
    (PointTM((0.0,), (1.0,)), "x"), (Box((0.0,), (1.0,)), "hi"),
    (SourceSpan(0, 1, 1, 1), "col"), (Num(1.0, SourceSpan(0, 1, 1, 1)), "value"),
    (RowSpec("id", "part", "tag", 1e-9, abs, "statement"), "tolerance"),
])
def test_frozen_records_refuse_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 0            # no __dict__ either


def test_records_copy_and_pickle_by_value():
    span = SourceSpan(0, 2, 1, 1)
    for record in (PointTM((0.0, 1.0), (1.0, 0.0)), Box((-1.0,), (1.0,)), span,
                   Bin("+", Num(1.0, span), Var("x1", 0, span), span),
                   Row("id", "tag", "s", 1e-9, [0.5], [0])):
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert twin == record and type(twin) is type(record)


def test_box_and_point_checks_on_construction():
    with pytest.raises(ValueError, match="lower < upper"):
        Box((0.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError, match="lower < upper"):
        Box((float("nan"),), (1.0,))
    p = PointTM([0, 1], (1, 0))
    assert p.x == (0.0, 1.0) and p.y == (1.0, 0.0)
    assert all(type(v) is float for v in p.x + p.y)
    with pytest.raises(ValueError, match="tensors are undefined at y = 0"):
        PointTM((0.0, 0.0), (EPS_Y / 2, 0.0))


def test_interned_nodes_keep_signed_zeros_apart_and_are_weakly_held():
    zero = exprdsl.interned(Num, 0.0, exprdsl._NOSPAN)
    minus = exprdsl.interned(Num, -0.0, exprdsl._NOSPAN)
    assert zero is not minus and zero == minus      # equal values, two nodes
    assert zero is exprdsl.interned(Num, 0.0, exprdsl._NOSPAN)
    assert weakref.ref(zero)() is zero


def test_records_construct_by_keyword_with_their_defaults():
    doc = SprayFileDoc(dim=2, coeffs=None, sigma=None, metric={}, one_form={},
                       box=1.0)
    assert (doc.dim, doc.metric, doc.box) == (2, {}, 1.0)
    hyp = lambda run: (True, "")                     # noqa: E731
    spec = RowSpec("id", "part", "tag", 1e-9, abs, "statement", hypothesis=hyp)
    assert spec.hypothesis is hyp
    assert RowSpec(id="id", part="part", eq_tag="tag", tolerance=1e-9,
                   residual=abs, statement="statement").hypothesis is None
    a, b = Row("id", "tag", "statement", 1e-9), Row("id", "tag", "statement", 1e-9)
    assert a.residuals == [] and a.residuals is not b.residuals
    assert a.point_ids is not b.point_ids and a.applicable and a.note == ""
    assert Row("id", "tag", "s", 1e-9, applicable=False, note="n").note == "n"
    assert Classification(0.0, 0.0, 0.0).isotropic


def test_mutable_records_compare_by_value_and_are_unhashable():
    a, b = Row("id", "tag", "s", 1e-9), Row("id", "tag", "s", 1e-9)
    assert a == b
    b.add(1.0, 0)
    assert a != b
    with pytest.raises(TypeError):
        hash(a)


def test_both_launch_paths_enter_through_cli_run():
    # the installed `spraylab` script and `python -m spraylab.cli` call one
    # function, the process entry point
    tomllib = pytest.importorskip("tomllib")
    from spraylab import cli
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    module, name = pyproject["project"]["scripts"]["spraylab"].split(":")
    script = getattr(importlib.import_module(module), name)
    (block,) = [node for node in ast.parse(Path(cli.__file__).read_text()).body
                if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    (stmt,) = block.body
    assert script is getattr(cli, stmt.value.func.id) is cli.run
