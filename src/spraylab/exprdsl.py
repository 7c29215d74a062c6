"""Small arithmetic expression language for spray coefficients and densities.

Grammar (whitespace-insensitive)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | atom ("^" integer)?
    atom   := number | ident | "(" expr ")" | func "(" expr ")"

Identifiers are the chart variables ``x1..xn``, ``y1..yn`` for a declared
dimension n, and the function names sqrt, sin, cos, exp, log, abs.  Exponents
are unsigned integer literals ("**" is rejected); general powers go through
exp/log.  Evaluation is generic over any carrier supporting the arithmetic,
which in practice means floats and :class:`spraylab.jets.Jet`.  Nodes are
built through `interned`: structurally equal subtrees at equal source spans
are one object, which `evaluate` visits once per memo table.
"""

from __future__ import annotations

import struct
import weakref
from typing import Optional, Union

from . import jets
from .jets import JetDomainError
from .records import Frozen, Record

FUNCTIONS = {
    "sqrt": jets.sqrt,
    "sin": jets.sin,
    "cos": jets.cos,
    "exp": jets.exp,
    "log": jets.log,
    "abs": jets.absolute,
}


class SourceSpan(Frozen):
    __slots__ = ("start", "end", "line", "col")

    def __init__(self, start: int, end: int, line: int, col: int):
        self._init(start, end, line, col)

    def __str__(self):
        return f"line {self.line}, column {self.col}"


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        self.span = span
        super().__init__(f"{message} at {span}")


class ExprDomainError(ArithmeticError):
    def __init__(self, message: str, span: SourceSpan):
        self.span = span
        super().__init__(f"{message} at {span}")


# -- AST ----------------------------------------------------------------------

class _Node(Frozen):
    __slots__ = ("__weakref__",)     # `interned` keeps nodes by weak reference


class Num(_Node):
    __slots__ = ("value", "span")

    def __init__(self, value: float, span: SourceSpan):
        self._init(value, span)


class Var(_Node):
    __slots__ = ("name", "slot", "span")

    def __init__(self, name: str, slot: int, span: SourceSpan):
        self._init(name, slot, span)     # slot 0..n-1 for x, n..2n-1 for y


class Neg(_Node):
    __slots__ = ("child", "span")

    def __init__(self, child: "ExprAst", span: SourceSpan):
        self._init(child, span)


class Bin(_Node):
    __slots__ = ("op", "left", "right", "span")

    def __init__(self, op: str, left: "ExprAst", right: "ExprAst",
                 span: SourceSpan):
        self._init(op, left, right, span)    # op one of + - * /


class Pow(_Node):
    __slots__ = ("base", "exponent", "span")

    def __init__(self, base: "ExprAst", exponent: int, span: SourceSpan):
        self._init(base, exponent, span)


class Call(_Node):
    __slots__ = ("fn", "arg", "span")

    def __init__(self, fn: str, arg: "ExprAst", span: SourceSpan):
        self._init(fn, arg, span)


ExprAst = Union[Num, Var, Neg, Bin, Pow, Call]

_NOSPAN = SourceSpan(0, 0, 0, 0)

# node key -> node; an entry lives as long as some expression holds its node
_INTERNED = weakref.WeakValueDictionary()
_BY_VALUE = (str, int, SourceSpan)


def interned(cls, *fields) -> ExprAst:
    """The one node `cls(*fields)`: nodes of equal type, op, value, child
    nodes and span are one object, so `evaluate`'s memo shares them.

    Children are keyed by identity (they are interned already) and a `Num`
    by the bits of its value, so 0.0 and -0.0 stay apart.  The span is part
    of the key, so a domain error still cites its own line; identical text
    parsed at the same offsets, and derived nodes of one span (`_NOSPAN`, or
    a quotient's source span, `_div`), are merged.
    """
    if cls is Num:
        key = (Num, struct.pack("<d", fields[0]), fields[1])
    else:
        key = (cls, *[f if type(f) in _BY_VALUE else id(f) for f in fields])
    node = _INTERNED.get(key)
    if node is None:
        node = _INTERNED[key] = cls(*fields)
    return node


# -- tokenizer ----------------------------------------------------------------

_OPS = set("+-*/^()")


class _Token(Frozen):
    __slots__ = ("kind", "text", "span")

    def __init__(self, kind: str, text: str, span: SourceSpan):
        # kind: "num" | "ident" | an operator char | "eof"
        self._init(kind, text, span)


def _tokenize(src: str, line_offset: int = 0, col_offset: int = 0):
    toks = []
    i, line, col = 0, 1, 1
    n = len(src)

    def span(start, end, sline, scol):
        return SourceSpan(start, end, sline + line_offset,
                          scol + (col_offset if sline == 1 else 0))

    while i < n:
        ch = src[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start, sline, scol = i, line, col
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == ".":
                j += 1
                while j < n and src[j].isdigit():
                    j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            toks.append(_Token("num", text, span(start, j, sline, scol)))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Token("ident", src[i:j], span(start, j, sline, scol)))
            col += j - i
            i = j
            continue
        if ch == "*" and i + 1 < n and src[i + 1] == "*":
            raise ExprSyntaxError("'**' is not an operator; use '^' for powers",
                                  span(start, i + 2, sline, scol))
        if ch in _OPS:
            toks.append(_Token(ch, ch, span(start, i + 1, sline, scol)))
            i += 1
            col += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}",
                              span(start, i + 1, sline, scol))
    toks.append(_Token("eof", "", span(n, n, line, col)))
    return toks


# -- parser -------------------------------------------------------------------

class _Parser:
    def __init__(self, toks, n: int):
        self.toks = toks
        self.pos = 0
        self.n = n

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def advance(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {t.text or 'end of input'!r}",
                                  t.span)
        return self.advance()

    def expr(self) -> ExprAst:
        node = self.term()
        while self.peek().kind in "+-":
            op = self.advance()
            rhs = self.term()
            node = interned(Bin, op.kind, node, rhs, op.span)
        return node

    def term(self) -> ExprAst:
        node = self.factor()
        while self.peek().kind in "*/":
            op = self.advance()
            rhs = self.factor()
            node = interned(Bin, op.kind, node, rhs, op.span)
        return node

    def factor(self) -> ExprAst:
        t = self.peek()
        if t.kind == "-":
            self.advance()
            return interned(Neg, self.factor(), t.span)
        node = self.atom()
        if self.peek().kind == "^":
            caret = self.advance()
            e = self.peek()
            if e.kind != "num" or not e.text.isdigit():
                raise ExprSyntaxError("exponent must be an unsigned integer literal",
                                      e.span if e.kind != "eof" else caret.span)
            self.advance()
            node = interned(Pow, node, int(e.text), caret.span)
        return node

    def atom(self) -> ExprAst:
        t = self.advance()
        if t.kind == "num":
            return interned(Num, float(t.text), t.span)
        if t.kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if t.kind == "ident":
            name = t.text
            if name in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return interned(Call, name, arg, t.span)
            if name[0] in "xy" and name[1:].isdigit():
                idx = int(name[1:])
                if not 1 <= idx <= self.n:
                    raise ExprSyntaxError(
                        f"variable index exceeds dimension: {name} with n={self.n}",
                        t.span)
                slot = (idx - 1) if name[0] == "x" else (self.n + idx - 1)
                return interned(Var, name, slot, t.span)
            raise ExprSyntaxError(f"unknown identifier {name!r}", t.span)
        raise ExprSyntaxError(f"unexpected {t.text or 'end of input'!r}", t.span)


def parse(src: str, n: int, line_offset: int = 0, col_offset: int = 0) -> ExprAst:
    """Parse `src` into an AST over the chart variables x1..xn, y1..yn."""
    if not src.strip():
        raise ExprSyntaxError("empty expression", SourceSpan(0, 0, 1 + line_offset, 1))
    p = _Parser(_tokenize(src, line_offset, col_offset), n)
    node = p.expr()
    t = p.peek()
    if t.kind != "eof":
        raise ExprSyntaxError(f"unexpected trailing input {t.text!r}", t.span)
    return node


# -- evaluation ---------------------------------------------------------------

def evaluate(ast: ExprAst, env, memo: Optional[dict] = None):
    """Evaluate an AST over carrier bindings.

    `env` holds one carrier value per variable slot (x1..xn then y1..yn).
    Subtrees shared between ASTs (symbolic derivatives alias their source
    nodes) are evaluated once per call via the memo table.
    """
    if memo is None:
        memo = {}
    key = id(ast)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(ast, Num):
        v = ast.value
    elif isinstance(ast, Var):
        v = env[ast.slot]
    elif isinstance(ast, Neg):
        v = -evaluate(ast.child, env, memo)
    elif isinstance(ast, Bin):
        a = evaluate(ast.left, env, memo)
        b = evaluate(ast.right, env, memo)
        if ast.op == "+":
            v = a + b
        elif ast.op == "-":
            v = a - b
        elif ast.op == "*":
            v = a * b
        else:
            try:
                v = jets.quotient(a, b, _reciprocal(ast.right, b, memo))
            except JetDomainError as e:
                raise ExprDomainError(str(e), ast.span) from None
    elif isinstance(ast, Pow):
        try:
            v = jets.powi(evaluate(ast.base, env, memo), ast.exponent)
        except JetDomainError as e:
            raise ExprDomainError(str(e), ast.span) from None
    elif isinstance(ast, Call):
        try:
            v = FUNCTIONS[ast.fn](evaluate(ast.arg, env, memo))
        except JetDomainError as e:
            raise ExprDomainError(f"{ast.fn}: {e}", ast.span) from None
    else:
        raise TypeError(f"not an expression node: {ast!r}")
    memo[key] = v
    return v


def _reciprocal(node: ExprAst, b, memo: dict):
    """The reciprocal of a jet `b`, the value of denominator `node`, built
    once per memo table: quotients by one node share it, and each has the
    bits of `a / b` (`jets.quotient`).  None for a float b."""
    if not isinstance(b, jets.Jet):
        return None
    key = ("1/", id(node))
    inv = memo.get(key)
    if inv is None:
        inv = memo[key] = b.reciprocal()
    return inv


def evaluate_many(asts, env):
    """Evaluate several ASTs sharing one memo table (exploits shared subtrees)."""
    memo = {}
    return [evaluate(a, env, memo) for a in asts]


# -- structural helpers ---------------------------------------------------------

def ast_equal(a: ExprAst, b: ExprAst) -> bool:
    """Structural equality, ignoring source spans."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Num):
        return a.value == b.value
    if isinstance(a, Var):
        return a.slot == b.slot
    if isinstance(a, Neg):
        return ast_equal(a.child, b.child)
    if isinstance(a, Bin):
        return a.op == b.op and ast_equal(a.left, b.left) and ast_equal(a.right, b.right)
    if isinstance(a, Pow):
        return a.exponent == b.exponent and ast_equal(a.base, b.base)
    if isinstance(a, Call):
        return a.fn == b.fn and ast_equal(a.arg, b.arg)
    return False


def variables(ast: ExprAst) -> set:
    """The names of the variables an expression reads."""
    if isinstance(ast, Var):
        return {ast.name}
    if isinstance(ast, Neg):
        return variables(ast.child)
    if isinstance(ast, Bin):
        return variables(ast.left) | variables(ast.right)
    if isinstance(ast, Pow):
        return variables(ast.base)
    if isinstance(ast, Call):
        return variables(ast.arg)
    return set()


def uses_y(ast: ExprAst) -> bool:
    """True when the expression depends on a fibre variable y1..yn."""
    return any(name[0] == "y" for name in variables(ast))


# -- pretty printer -------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def _prec(ast: ExprAst) -> int:
    if isinstance(ast, Bin):
        return _PREC[ast.op]
    if isinstance(ast, Neg):
        return _PREC["neg"]
    if isinstance(ast, Pow):
        return _PREC["pow"]
    if isinstance(ast, Num) and ast.value < 0:
        return _PREC["neg"]
    return _PREC["atom"]


def pretty(ast: ExprAst) -> str:
    """Render an AST as source that reparses to a structurally identical AST."""
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Neg):
        inner = pretty(ast.child)
        if _prec(ast.child) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(ast, Bin):
        lhs = pretty(ast.left)
        rhs = pretty(ast.right)
        p = _PREC[ast.op]
        if _prec(ast.left) < p:
            lhs = f"({lhs})"
        # right operands parenthesize at equal precedence so that the
        # (left-associative) reparse reproduces the tree structurally
        if _prec(ast.right) <= p:
            rhs = f"({rhs})"
        return f"{lhs} {ast.op} {rhs}"
    if isinstance(ast, Pow):
        base = pretty(ast.base)
        if _prec(ast.base) < _PREC["atom"]:
            base = f"({base})"
        return f"{base}^{ast.exponent}"
    if isinstance(ast, Call):
        return f"{ast.fn}({pretty(ast.arg)})"
    raise TypeError(f"not an expression node: {ast!r}")


# -- symbolic differentiation ----------------------------------------------------

def _num(v: float) -> Num:
    return interned(Num, float(v), _NOSPAN)


def _is_const(ast, v=None):
    return isinstance(ast, Num) and (v is None or ast.value == v)


def _add(a, b):
    if _is_const(a) and _is_const(b):
        return _num(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return interned(Bin, "+", a, b, _NOSPAN)


def _sub(a, b):
    if _is_const(a) and _is_const(b):
        return _num(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return interned(Neg, b, _NOSPAN)
    return interned(Bin, "-", a, b, _NOSPAN)


def _mul(a, b):
    if _is_const(a) and _is_const(b):
        return _num(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _num(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return interned(Bin, "*", a, b, _NOSPAN)


def _div(a, b, span: SourceSpan):
    """a / b, at the `span` of the node whose derivative it is: a division
    by zero there cites the source it came from."""
    if _is_const(a, 0.0):
        return _num(0.0)
    if _is_const(b, 1.0):
        return a
    return interned(Bin, "/", a, b, span)


def _pow(a, k: int):
    if k == 0:
        return _num(1.0)
    if k == 1:
        return a
    if _is_const(a):
        return _num(a.value ** k)
    return interned(Pow, a, k, _NOSPAN)


def differentiate(ast: ExprAst, slot: int, memo: Optional[dict] = None) -> ExprAst:
    """Symbolic partial derivative with respect to variable `slot`.

    The result aliases subtrees of the input, so evaluating an expression
    together with its derivatives through one memo table shares work.  Each
    distinct node is differentiated once per call.
    """
    if memo is None:
        memo = {}
    out = memo.get(id(ast))
    if out is None:
        out = memo[id(ast)] = _derivative(
            ast, slot, lambda a: differentiate(a, slot, memo))
    return out


def _derivative(ast: ExprAst, slot: int, d) -> ExprAst:
    """The derivative of `ast`, with `d` giving those of its children."""
    if isinstance(ast, Num):
        return _num(0.0)
    if isinstance(ast, Var):
        return _num(1.0 if ast.slot == slot else 0.0)
    if isinstance(ast, Neg):
        dc = d(ast.child)
        return _num(0.0) if _is_const(dc, 0.0) else _sub(_num(0.0), dc)
    if isinstance(ast, Bin):
        da = d(ast.left)
        db = d(ast.right)
        if ast.op == "+":
            return _add(da, db)
        if ast.op == "-":
            return _sub(da, db)
        if ast.op == "*":
            return _add(_mul(da, ast.right), _mul(ast.left, db))
        if _is_const(ast.right):
            return _div(da, ast.right, ast.span)
        return _div(_sub(_mul(da, ast.right), _mul(ast.left, db)),
                    _pow(ast.right, 2), ast.span)
    if isinstance(ast, Pow):
        db = d(ast.base)
        return _mul(_mul(_num(ast.exponent), _pow(ast.base, ast.exponent - 1)), db)
    if isinstance(ast, Call):
        da = d(ast.arg)
        if _is_const(da, 0.0):
            return _num(0.0)
        u = ast.arg
        if ast.fn == "sqrt":
            return _div(da, _mul(_num(2.0), ast), ast.span)
        if ast.fn == "exp":
            return _mul(ast, da)
        if ast.fn == "log":
            return _div(da, u, ast.span)
        if ast.fn == "sin":
            return _mul(interned(Call, "cos", u, _NOSPAN), da)
        if ast.fn == "cos":
            sin_u = interned(Call, "sin", u, _NOSPAN)
            return _sub(_num(0.0), _mul(sin_u, da))
        if ast.fn == "abs":
            return _mul(_div(u, ast, ast.span), da)
    raise TypeError(f"not an expression node: {ast!r}")


# -- spray-definition files -------------------------------------------------------

class SprayFileDoc(Record):
    """Parsed contents of a spray-definition text file: `coeffs` the G1..Gn
    ASTs (None for a metric block), `sigma` an optional x-only volume
    density, `metric` {(i, j): ast} for a_ij and `one_form` {i: ast} for b_i
    (None without a metric block), `box` the half-width of the domain box."""
    __slots__ = ("dim", "coeffs", "sigma", "metric", "one_form", "box")

    def __init__(self, dim: int, coeffs: Optional[list],
                 sigma: Optional[ExprAst], metric: Optional[dict],
                 one_form: Optional[dict], box: float):
        self.dim, self.coeffs, self.sigma = dim, coeffs, sigma
        self.metric, self.one_form, self.box = metric, one_form, box


def load_spray_file(path) -> SprayFileDoc:
    """Read a spray-definition document.

    Format: ``key = expression`` lines, ``#`` comments, blank lines ignored.
    Keys: ``dim``, ``G1..Gn``, optional ``sigma``, optional ``box``, optional
    Randers metric block ``a_IJ`` / ``b_I``.  A file carries either the G
    block or the metric block, not both.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_spray_source(text, origin=str(path))


def parse_spray_source(text: str, origin: str = "<string>") -> SprayFileDoc:
    entries = {}
    dim = None
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0]
        if not stripped.strip():
            continue
        if "=" not in stripped:
            raise ExprSyntaxError(
                f"{origin}: expected 'key = expression'",
                SourceSpan(0, len(raw), lineno, 1))
        key, rhs = stripped.split("=", 1)
        key = key.strip()
        if key in entries:
            raise ExprSyntaxError(f"{origin}: duplicate key {key!r}",
                                  SourceSpan(0, len(raw), lineno, 1))
        entries[key] = (rhs, lineno, stripped.index("=") + 2)
        if key == "dim":
            try:
                dim = int(rhs.strip())
            except ValueError:
                raise ExprSyntaxError(f"{origin}: dim must be an integer",
                                      SourceSpan(0, len(raw), lineno, 1)) from None
    if dim is None or dim < 2:
        raise ExprSyntaxError(f"{origin}: missing or invalid 'dim' (need dim >= 2)",
                              SourceSpan(0, 0, 1, 1))
    entries.pop("dim")

    box = 1.0
    if "box" in entries:
        rhs, lineno, col = entries.pop("box")
        try:
            box = float(rhs.strip())
        except ValueError:
            raise ExprSyntaxError(f"{origin}: box must be a number",
                                  SourceSpan(0, 0, lineno, 1)) from None
        if box <= 0:
            raise ExprSyntaxError(f"{origin}: box must be positive",
                                  SourceSpan(0, 0, lineno, 1))

    def parse_entry(key, x_only=False):
        rhs, lineno, col = entries.pop(key)
        ast = parse(rhs, dim, line_offset=lineno - 1, col_offset=col - 1)
        if x_only and uses_y(ast):
            raise ExprSyntaxError(
                f"{origin}: {key} must depend on x variables only",
                SourceSpan(0, 0, lineno, col))
        return ast

    sigma = parse_entry("sigma", x_only=True) if "sigma" in entries else None

    g_keys = [k for k in entries if k.startswith("G")]
    a_keys = [k for k in entries if k.startswith("a_")]
    b_keys = [k for k in entries if k.startswith("b_")]
    if g_keys and (a_keys or b_keys):
        raise ExprSyntaxError(
            f"{origin}: give either spray coefficients G1..G{dim} or a metric "
            "block a_IJ/b_I, not both", SourceSpan(0, 0, 1, 1))

    coeffs = metric = one_form = None
    if a_keys:
        metric = {}
        for k in sorted(a_keys):
            body = k[2:]
            if len(body) != 2 or not body.isdigit():
                raise ExprSyntaxError(f"{origin}: bad metric key {k!r} "
                                      "(expected a_IJ with digits I, J)",
                                      SourceSpan(0, 0, entries[k][1], 1))
            i, j = int(body[0]), int(body[1])
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ExprSyntaxError(f"{origin}: metric index out of range in {k!r}",
                                      SourceSpan(0, 0, entries[k][1], 1))
            metric[(i, j)] = parse_entry(k, x_only=True)
        one_form = {}
        for k in sorted(b_keys):
            body = k[2:]
            if not body.isdigit() or not 1 <= int(body) <= dim:
                raise ExprSyntaxError(f"{origin}: bad 1-form key {k!r}",
                                      SourceSpan(0, 0, entries[k][1], 1))
            one_form[int(body)] = parse_entry(k, x_only=True)
    else:
        coeffs = []
        for i in range(1, dim + 1):
            key = f"G{i}"
            if key not in entries:
                raise ExprSyntaxError(f"{origin}: missing coefficient {key}",
                                      SourceSpan(0, 0, 1, 1))
            coeffs.append(parse_entry(key))

    if entries:
        key = sorted(entries)[0]
        raise ExprSyntaxError(f"{origin}: unknown key {key!r}",
                              SourceSpan(0, 0, entries[key][1], 1))
    return SprayFileDoc(dim=dim, coeffs=coeffs, sigma=sigma, metric=metric,
                        one_form=one_form, box=box)
