"""Closed-form coordinate expressions and second-order forward-mode jets.

Expressions are immutable trees over variables ``t1..tn`` (or another prefix),
the constants ``pi`` and ``e``, the arithmetic operators ``+ - * / ^`` with
``^`` binding tightest and associating right, unary minus, and the functions
sin cos tan exp log sqrt atan sinh cosh.

One recursion evaluates every entry point: ``eval_jet2`` at order 2 (value,
gradient and Hessian in one pass), ``eval_value`` and ``const_value`` at
order 0.  A derivative that vanishes identically is a structural zero and is
never stored, constants stay float64 scalars, and full arrays are formed only
when a result is returned.  The domain rules (division by zero, log or sqrt
of a non-positive argument, a zero base with a negative integer exponent, a
non-integer exponent on a non-positive base) live in that recursion alone,
so bounds, coordinates and form coefficients obey the same rules.

Points may be a single parameter vector of shape ``(n,)`` or a batch of
shape ``(n, ...)``; jet fields then carry matching trailing axes, which is
what makes quadrature over large tensor grids cheap.
"""
from __future__ import annotations

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


# Derivative arithmetic where None is a structural zero.  Sums are taken
# pairwise, innermost first, so each temporary is freed as soon as it is
# added, as in the plain left-to-right expression.

def _add(a, b):
    if a is None:
        return b
    return a if b is None else a + b


def _sub(a, b):
    if b is None:
        return a
    return -b if a is None else a - b


def _mul(a, s):
    return None if a is None else a * s


def _div(a, s):
    return None if a is None else a / s


def _outer(ga, gb):
    # (n,...) x (n,...) -> (n,n,...)
    if ga is None or gb is None:
        return None
    return ga[:, None] * gb[None, :]


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

    ``bad`` is a scalar for a variable-free node; it is broadcast to the
    batch only here, on the error path.  The error also carries the
    failing node, the reason and the mask, for callers whose variables
    have other names (form coefficients are written in p1..pC).
    """
    if np.any(bad):
        mask = np.broadcast_to(bad, pts.shape[1:])
        err = ExprDomainError(f"{what} in {to_text(e)}",
                              location=_first_bad(mask, pts))
        err.node, err.reason, err.mask = e, what, mask
        raise err


def _jet(e: Expr, pts: np.ndarray, order: int):
    """Value, gradient and Hessian of ``e`` on the batch ``pts`` (n, ...).

    Order 0 forms values only: no variable carries a gradient, so every
    derivative is a structural zero (None).  At order 2 a variable's
    gradient is a unit vector shaped to broadcast against (n,) + batch.
    A variable-free node has a float64 scalar value; every other value
    has the batch shape.
    """
    if isinstance(e, Num):
        return np.float64(e.value), None, None
    if isinstance(e, Const):
        return np.float64(CONSTANTS[e.name]), None, None
    if isinstance(e, Var):
        g = None
        if order:
            g = np.zeros((len(pts),) + (1,) * (pts.ndim - 1))
            g[e.index] = 1.0
        return pts[e.index], g, None
    if isinstance(e, Neg):
        v, g, h = _jet(e.arg, pts, order)
        return -v, _sub(None, g), _sub(None, h)
    if isinstance(e, Call):
        u, gu, hu = _jet(e.arg, pts, order)
        if e.func in ("log", "sqrt"):
            _check(u <= 0.0, f"{e.func} of non-positive argument", e, pts)
        f, f1, f2 = FUNCTIONS[e.func]
        if gu is None:
            return f(u), None, None
        d1 = f1(u)
        return (f(u), _mul(gu, d1),
                _add(_mul(hu, d1), _mul(_outer(gu, gu), f2(u))))
    if not isinstance(e, BinOp):
        raise TypeError(f"not an Expr: {e!r}")
    va, ga, ha = _jet(e.left, pts, order)
    vb, gb, hb = _jet(e.right, pts, order)
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
        if ga is None or vb == 0:
            return v, None, None
        d1 = vb * va ** (vb - 1)
        h2 = None if vb == 1 else _mul(_outer(ga, ga),
                                       vb * (vb - 1) * va ** (vb - 2))
        return v, _mul(ga, d1), _add(_mul(ha, d1), h2)
    _check(va <= 0.0, "non-integer exponent needs positive base", e, pts)
    v = va ** vb
    if ga is None and gb is None:
        return v, None, None
    # d(a^b) = a^b q with q = b' log a + b a'/a
    lv = np.log(va)
    q = _add(_mul(gb, lv), _div(_mul(ga, vb), va))
    dq = _add(_mul(hb, lv), _div(_add(_outer(gb, ga), _outer(ga, gb)), va))
    dq = _sub(_add(dq, _div(_mul(ha, vb), va)),
              _div(_mul(_outer(ga, ga), vb), va ** 2))
    return v, _mul(q, v), _mul(_add(_outer(q, q), dq), v)


def _batch(point):
    """``point`` as an (n, ...) batch, and whether it was a single (n,)
    vector.  A single point becomes a batch of one, so that values that
    depend on a variable are arrays and only variable-free ones scalars."""
    pts = np.asarray(point, dtype=float)
    if pts.ndim == 0:
        raise ValueError("point must have shape (n,) or (n, ...)")
    return (pts[:, None], True) if pts.ndim == 1 else (pts, False)


def _full(a, shape: tuple, pts: np.ndarray) -> np.ndarray:
    """``a`` as a full array of ``shape`` that does not alias ``pts``."""
    if a is None:
        return np.zeros(shape)
    if np.shape(a) == shape and not np.may_share_memory(a, pts):
        return a
    return np.array(np.broadcast_to(a, shape))


def eval_jet2(e: Expr, point) -> Jet2:
    """Evaluate value/gradient/Hessian at ``point``.

    ``point`` has shape (n,) for a single evaluation or (n, ...) for a batch;
    the returned jet fields carry the same trailing axes.
    """
    pts, single = _batch(point)
    v, g, h = _jet(e, pts, 2)
    n, shape = pts.shape[0], pts.shape[1:]
    v = _full(v, shape, pts)
    g = _full(g, (n,) + shape, pts)
    h = _full(h, (n, n) + shape, pts)
    if single:
        return Jet2(float(v[0]), g[:, 0], h[:, :, 0])
    return Jet2(v, g, h)


def eval_value(e: Expr, point) -> ArrayLike:
    """Evaluate the value alone; cheaper than a jet on large batches."""
    pts, single = _batch(point)
    v = _full(_jet(e, pts, 0)[0], pts.shape[1:], pts)
    return float(v[0]) if single else v


# A batch of no points, wide enough for any variable.  Each variable reads
# an empty array, so a value comes out scalar exactly when the expression
# is variable-free, and only variable-free nodes can fail a domain check.
_NO_POINTS = np.empty((1 << 31, 0))


def const_value(e: Expr) -> float | None:
    """Value of a variable-free expression, else None."""
    v = _jet(e, _NO_POINTS, 0)[0]
    return float(v) if np.ndim(v) == 0 else None
