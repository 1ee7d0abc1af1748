"""Closed-form coordinate expressions and second-order forward-mode jets.

Expressions are immutable trees over variables ``t1..tn`` (or another prefix),
the constants ``pi`` and ``e``, the arithmetic operators ``+ - * / ^`` with
``^`` binding tightest and associating right, unary minus, and the functions
sin cos tan exp log sqrt atan sinh cosh.

One evaluator runs a compiled tape, one op per distinct subexpression,
for every entry point: ``eval_jet2`` at order 2, ``eval_value`` and
``const_value`` at order 0, and the chart frames of ``geometry``.  On a
tensor grid a node is computed only on the axes it depends on, a
derivative that vanishes identically is never stored, and full arrays are
formed only when a result is written out.  The domain rules (division by
zero, log or sqrt of a non-positive argument, a zero base with a negative
integer exponent, a non-integer exponent on a non-positive base) live in
that evaluator alone, so bounds, coordinates and form coefficients obey
the same rules.

Points may be a single parameter vector of shape ``(n,)`` or a batch of
shape ``(n, ...)``; jet fields then carry matching trailing axes, which is
what makes quadrature over large tensor grids cheap.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ExprDomainError, ExprSyntaxError

__all__ = [
    "Expr", "Num", "Const", "Var", "Neg", "BinOp", "Call", "Jet2",
    "parse", "to_text", "eval_jet2", "eval_value", "substitute",
    "const_value",
]


class Expr:
    """Marker base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Const(Expr):
    name: str  # "pi" or "e"


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 0-based slot into the parameter vector


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


CONSTANTS = {"pi": math.pi, "e": math.e}

# func -> (f, f', f'') as numpy-vectorized callables
FUNCTIONS = {
    "sin": (np.sin, np.cos, lambda u: -np.sin(u)),
    "cos": (np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u)),
    "tan": (np.tan, lambda u: 1.0 / np.cos(u) ** 2,
            lambda u: 2.0 * np.tan(u) / np.cos(u) ** 2),
    "exp": (np.exp, np.exp, np.exp),
    "log": (np.log, lambda u: 1.0 / u, lambda u: -1.0 / u ** 2),
    "sqrt": (np.sqrt, lambda u: 0.5 / np.sqrt(u),
             lambda u: -0.25 * u ** -1.5),
    "atan": (np.arctan, lambda u: 1.0 / (1.0 + u ** 2),
             lambda u: -2.0 * u / (1.0 + u ** 2) ** 2),
    "sinh": (np.sinh, np.cosh, np.sinh),
    "cosh": (np.cosh, np.sinh, np.cosh),
}


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[+\-*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, lexeme, offset) triples; offsets are 1-based."""
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(
                f"unexpected character {text[pos]!r} at offset {pos + 1}",
                location={"offset": pos + 1})
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        toks.append((kind, m.group(), m.start() + 1))
    toks.append(("end", "", len(text) + 1))
    return toks


class _Parser:
    def __init__(self, text: str, arity: int, var_prefix: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.arity = arity
        self.var_prefix = var_prefix

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def fail(self, msg: str, offset: int):
        raise ExprSyntaxError(f"{msg} at offset {offset}",
                              location={"offset": offset})

    def parse_sum(self) -> Expr:
        e = self.parse_term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            e = BinOp(op, e, self.parse_term())
        return e

    def parse_term(self) -> Expr:
        e = self.parse_unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            e = BinOp(op, e, self.parse_unary())
        return e

    def parse_unary(self) -> Expr:
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            inner = self.parse_unary()
            # fold a negated literal into the literal itself; power binds
            # tighter, so "-2^2" never reaches here with a bare Num
            if isinstance(inner, Num):
                return Num(-inner.value)
            return Neg(inner)
        return self.parse_power()

    def parse_power(self) -> Expr:
        e = self.parse_atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            # exponent may carry its own sign; right-associative
            return BinOp("^", e, self.parse_unary())
        return e

    def parse_atom(self) -> Expr:
        kind, lex, off = self.advance()
        if kind == "num":
            return Num(float(lex))
        if kind == "op" and lex == "(":
            e = self.parse_sum()
            kind, lex, off = self.advance()
            if (kind, lex) != ("op", ")"):
                self.fail("expected ')'", off)
            return e
        if kind == "name":
            if lex in CONSTANTS:
                return Const(lex)
            if lex in FUNCTIONS:
                kind2, lex2, off2 = self.advance()
                if (kind2, lex2) != ("op", "("):
                    self.fail(f"function {lex!r} needs '('", off2)
                arg = self.parse_sum()
                kind2, lex2, off2 = self.advance()
                if (kind2, lex2) != ("op", ")"):
                    self.fail("expected ')'", off2)
                return Call(lex, arg)
            m = re.fullmatch(re.escape(self.var_prefix) + r"(\d+)", lex)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= self.arity:
                    self.fail(
                        f"variable {lex!r} out of range for arity {self.arity}",
                        off)
                return Var(idx - 1)
            self.fail(f"unknown name {lex!r}", off)
        self.fail(f"unexpected token {lex!r}" if lex else "unexpected end of input",
                  off)


def parse(text: str, arity: int, var_prefix: str = "t") -> Expr:
    """Parse ``text`` into an Expr with variables ``<prefix>1..<prefix><arity>``.

    Syntax errors carry the 1-based byte offset of the offending token.
    """
    p = _Parser(text, arity, var_prefix)
    e = p.parse_sum()
    kind, lex, off = p.peek()
    if kind != "end":
        p.fail(f"unexpected token {lex!r}", off)
    return e


def to_text(e: Expr, var_prefix: str = "t") -> str:
    """Canonical fully-parenthesized rendering; parse(to_text(e)) == e."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Var):
        return f"{var_prefix}{e.index + 1}"
    if isinstance(e, Neg):
        return f"(-{to_text(e.arg, var_prefix)})"
    if isinstance(e, BinOp):
        return f"({to_text(e.left, var_prefix)} {e.op} {to_text(e.right, var_prefix)})"
    if isinstance(e, Call):
        return f"{e.func}({to_text(e.arg, var_prefix)})"
    raise TypeError(f"not an Expr: {e!r}")


def substitute(e: Expr, replacements: dict[int, Expr]) -> Expr:
    """Replace Var(i) by replacements[i] where present (used for
    reparametrizations and for composing perturbations)."""
    if isinstance(e, Var):
        return replacements.get(e.index, e)
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, replacements))
    if isinstance(e, BinOp):
        return BinOp(e.op, substitute(e.left, replacements),
                     substitute(e.right, replacements))
    if isinstance(e, Call):
        return Call(e.func, substitute(e.arg, replacements))
    return e


# ---------------------------------------------------------------------------
# jets

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class Jet2:
    """Value, gradient and (symmetric) Hessian at a point or point batch."""

    value: ArrayLike
    grad: np.ndarray   # (n, ...) leading axis over variables
    hess: np.ndarray   # (n, n, ...)


# Derivatives are dicts keyed by variable tuples, ``(i,)`` for a gradient
# entry and ``(i, j)`` for a Hessian entry; a missing key is a structural
# zero.  Every entry follows the rule of the whole array, term by term.

def _add(a, b):
    if not (a and b):
        return a or b
    out = {k: v + b[k] if k in b else v for k, v in a.items()}
    out.update((k, v) for k, v in b.items() if k not in a)
    return out


def _sub(a, b):
    if not b:
        return a
    out = {k: v - b[k] if k in b else v for k, v in a.items()}
    out.update((k, -v) for k, v in b.items() if k not in a)
    return out


def _mul(a, s):
    return a and {k: v * s for k, v in a.items()}


def _div(a, s):
    return a and {k: v / s for k, v in a.items()}


def _outer(ga, gb):
    return ga and gb and {i + j: u * w for i, u in ga.items()
                          for j, w in gb.items()}


def _first_bad(mask: np.ndarray, pts: np.ndarray) -> dict:
    """The point of ``pts`` (shape (n, ...)) at the first True entry of
    ``mask`` in row-major order, or {} if there is none."""
    flat = np.flatnonzero(mask)
    if flat.size == 0:
        return {}
    t = np.reshape(pts, (len(pts), np.size(mask)))[:, flat[0]]
    return {"t": [float(v) for v in t]}


def _check(bad, what: str, e: Expr, pts: np.ndarray) -> None:
    """Raise ExprDomainError at the first point where ``bad`` holds.

    ``bad`` has only the axes of its node (none for a variable-free
    node); it is broadcast to the batch only here, on the error path.
    The error also carries the failing node, the reason and the mask,
    for callers whose variables have other names (form coefficients are
    written in p1..pC).
    """
    if np.any(bad):
        mask = np.broadcast_to(bad, pts.shape[1:])
        err = ExprDomainError(f"{what} in {to_text(e)}",
                              location=_first_bad(mask, pts))
        err.node, err.reason, err.mask = e, what, mask
        raise err


def _compile(exprs) -> tuple:
    """One tape for all of ``exprs``: an op ``(node, argument slots)`` per
    distinct subexpression, in post-order, so a shared subexpression is
    evaluated once and domain errors keep the order of evaluating the
    expressions one after another.  A number is keyed with its sign, to
    tell ``-0.0`` from ``0.0``.  Also returns the expressions each op
    completes and the slots each op reads last."""
    ops, slot = [], {}

    def visit(e):
        if isinstance(e, BinOp):
            tag, args = e.op, (visit(e.left), visit(e.right))
        elif isinstance(e, (Neg, Call)):
            tag, args = getattr(e, "func", "neg"), (visit(e.arg),)
        elif isinstance(e, Num):
            tag, args = (e.value, math.copysign(1.0, e.value)), ()
        elif isinstance(e, (Const, Var)):
            tag, args = e, ()
        else:
            raise TypeError(f"not an Expr: {e!r}")
        k = slot.setdefault((tag, args), len(ops))
        if k == len(ops):
            ops.append((e, args))
        return k

    outputs = {}
    for i, e in enumerate(exprs):
        outputs.setdefault(visit(e), []).append(i)
    last = {a: k for k, (_, args) in enumerate(ops) for a in args}
    dead = [[] for _ in ops]
    for s in range(len(ops)):
        dead[last.get(s, s)].append(s)
    return ops, outputs, dead


def _variables(pts: np.ndarray):
    """The variables of the batch ``pts`` (n, ...), indexed by variable.
    On a tensor grid (n, m1, ..., mn), variable ``i`` varying along axis
    ``i`` alone (bits compared), each is its axis shaped
    ``(1, .., mi, .., 1)`` to broadcast; otherwise ``pts`` itself."""
    n = len(pts)
    if n < 2 or pts.ndim != n + 1:
        return pts
    axes = [pts[i][tuple(slice(None) if d == i else slice(1)
                         for d in range(n))].copy() for i in range(n)]
    return axes if all(np.all(p.view(np.uint64) == ax.view(np.uint64))
                       for p, ax in zip(pts, axes)) else pts


def _run(tape: tuple, pts: np.ndarray, order: int, emit) -> None:
    """Evaluate ``tape`` on the batch ``pts`` (n, ...), passing the jet
    ``(value, gradient, Hessian)`` of expression ``i`` to ``emit(i, ...)``
    once complete and freeing each slot after its last read.  Overflow
    and invalid values are not warned about: the domain checks and the
    rank test refuse them."""
    ops, outputs, dead = tape
    axes = _variables(pts)
    slots = [None] * len(ops)
    with np.errstate(all="ignore"):
        for k, (e, args) in enumerate(ops):
            slots[k] = _rule(e, [slots[a] for a in args], pts, axes, order)
            for i in outputs.get(k, ()):
                emit(i, *slots[k])
            for s in dead[k]:
                slots[s] = None


def _rule(e: Expr, args: list, pts: np.ndarray, variables, order: int):
    """The jet of the node ``e`` from its arguments' jets.  Order 0 forms
    no derivatives; a variable-free node has a float64 scalar value."""
    if isinstance(e, Num):
        return np.float64(e.value), {}, {}
    if isinstance(e, Const):
        return np.float64(CONSTANTS[e.name]), {}, {}
    if isinstance(e, Var):
        g = {(e.index,): 1.0} if order else {}
        return variables[e.index], g, {}
    if isinstance(e, Neg):
        (v, g, h), = args
        return -v, _sub({}, g), _sub({}, h)
    if isinstance(e, Call):
        (u, gu, hu), = args
        if e.func in ("log", "sqrt"):
            _check(u <= 0.0, f"{e.func} of non-positive argument", e, pts)
        f, f1, f2 = FUNCTIONS[e.func]
        if not gu:
            return f(u), {}, {}
        d1 = f1(u)
        return (f(u), _mul(gu, d1),
                _add(_mul(hu, d1), _mul(_outer(gu, gu), f2(u))))
    (va, ga, ha), (vb, gb, hb) = args
    if e.op == "+":
        return va + vb, _add(ga, gb), _add(ha, hb)
    if e.op == "-":
        return va - vb, _sub(ga, gb), _sub(ha, hb)
    if e.op == "*":
        h = _add(_add(_mul(ha, vb), _mul(hb, va)), _outer(ga, gb))
        return (va * vb, _add(_mul(ga, vb), _mul(gb, va)),
                _add(h, _outer(gb, ga)))
    if e.op == "/":
        _check(vb == 0.0, "division by zero", e, pts)
        v = va / vb
        g = _div(_sub(ga, _mul(gb, v)), vb)
        h = _sub(_sub(ha, _outer(g, gb)), _outer(gb, g))
        return v, g, _div(_sub(h, _mul(hb, v)), vb)
    if np.ndim(vb) == 0 and float(vb).is_integer():
        # an exponent that folds to an integer accepts any base
        if vb < 0:
            _check(va == 0.0, "zero base with negative exponent", e, pts)
        v = va ** vb
        if not ga or vb == 0:
            return v, {}, {}
        d1 = vb * va ** (vb - 1)
        h2 = {} if vb == 1 else _mul(_outer(ga, ga),
                                     vb * (vb - 1) * va ** (vb - 2))
        return v, _mul(ga, d1), _add(_mul(ha, d1), h2)
    _check(va <= 0.0, "non-integer exponent needs positive base", e, pts)
    v = va ** vb
    if not ga and not gb:
        return v, {}, {}
    # d(a^b) = a^b q with q = b' log a + b a'/a
    lv = np.log(va)
    q = _add(_mul(gb, lv), _div(_mul(ga, vb), va))
    dq = _add(_mul(hb, lv), _div(_add(_outer(gb, ga), _outer(ga, gb)), va))
    dq = _sub(_add(dq, _div(_mul(ha, vb), va)),
              _div(_mul(_outer(ga, ga), vb), va ** 2))
    return v, _mul(q, v), _mul(_add(_outer(q, q), dq), v)


def _store(fields: tuple, v, g: dict, h: dict) -> None:
    """Write a jet into ``fields``, the arrays (value, gradient, Hessian)
    or a prefix of them, broadcasting each entry to the full batch and
    writing a structural zero as 0."""
    for rank, (part, out) in enumerate(zip(({(): v}, g, h), fields)):
        for key in itertools.product(*map(range, out.shape[:rank])):
            out[key + (...,)] = part.get(key, 0.0)


def _batch(point):
    """``point`` as an (n, ...) batch, and whether it was a single (n,)
    vector.  A single point becomes a batch of one, so that values that
    depend on a variable are arrays and only variable-free ones scalars."""
    pts = np.asarray(point, dtype=float)
    if pts.ndim == 0:
        raise ValueError("point must have shape (n,) or (n, ...)")
    return (pts[:, None], True) if pts.ndim == 1 else (pts, False)


def eval_jet2(e: Expr, point) -> Jet2:
    """Evaluate value/gradient/Hessian at ``point``.

    ``point`` has shape (n,) for a single evaluation or (n, ...) for a batch;
    the returned jet fields carry the same trailing axes.
    """
    pts, single = _batch(point)
    n, shape = len(pts), np.shape(point)[1:]
    fields = np.empty(shape), np.empty((n,) + shape), np.empty((n, n) + shape)
    _run(_compile([e]), pts, 2, lambda i, *jet: _store(fields, *jet))
    value, grad, hess = fields
    return Jet2(float(value) if single else value, grad, hess)


def eval_value(e: Expr, point) -> ArrayLike:
    """Evaluate the value alone; cheaper than a jet on large batches."""
    pts, single = _batch(point)
    value = np.empty(np.shape(point)[1:])
    _run(_compile([e]), pts, 0, lambda i, *jet: _store((value,), *jet))
    return float(value) if single else value


# A batch of no points, wide enough for any variable.  Each variable reads
# an empty array, so a value comes out scalar exactly when the expression
# is variable-free, and only variable-free nodes can fail a domain check.
_NO_POINTS = np.empty((1 << 31, 0))


def const_value(e: Expr) -> float | None:
    """Value of a variable-free expression, else None."""
    out = []
    _run(_compile([e]), _NO_POINTS, 0, lambda i, v, g, h: out.append(v))
    return float(out[0]) if np.ndim(out[0]) == 0 else None
