"""Closed-form scalar expressions in the variables t and n.

The language is deliberately tiny: rational constants, the two variables,
the four arithmetic operators and parentheses.  It is what pair
declarations in run configs are written in, e.g.
``"(2*n*(1+t)+2*t+1)/(n+1)"``.

Grammar (left associative, usual precedence):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := NUMBER | 't' | 'n' | '(' expr ')' | '-' factor

``NUMBER`` is a nonnegative integer or decimal literal within the float
range; negative constants are written with the unary minus.  A tree may be
at most ``MAX_DEPTH`` levels deep.  Trees are immutable after parsing and
evaluation is pure, so expressions can be shared across threads freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "ExprError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "DivisionByZeroError",
    "LimitDivergenceError",
    "parse_expr",
    "eval_expr",
    "unparse",
    "mentions_n",
    "limit_in_n",
]


class ExprError(ValueError):
    """Base class for expression language failures."""


class ExprSyntaxError(ExprError):
    """Malformed input; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprSyntaxError):
    """An identifier other than ``t`` or ``n``."""


class DivisionByZeroError(ExprError, ZeroDivisionError):
    """A divisor evaluated to zero.  Always a hard error, never an infinity."""


class LimitDivergenceError(ExprError):
    """No stabilisation of e(t, 2**j) within the probe ladder."""


@dataclass(frozen=True)
class Num:
    """Nonnegative rational constant (negatives are spelled with Neg)."""

    value: Fraction

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("Num holds nonnegative constants; wrap in Neg")


@dataclass(frozen=True)
class Var:
    name: str  # "t" or "n"

    def __post_init__(self):
        if self.name not in ("t", "n"):
            raise ValueError(f"unknown variable {self.name!r}")


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"

    def __post_init__(self):
        if self.op not in "+-*/" or len(self.op) != 1:
            raise ValueError(f"unknown operator {self.op!r}")


Expr = Union[Num, Var, Neg, BinOp]

_WS = " \t\r\n"

# Most levels parse_expr accepts on a path from the root: each parenthesis
# pair, unary minus and binary operator is one.  Parsing, evaluation,
# unparse and mentions_n recurse per level, so a deeper tree would reach
# Python's recursion limit (1,000 frames) instead of an input error.
MAX_DEPTH = 100


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i, size = 0, len(text)
    while i < size:
        ch = text[i]
        if ch in _WS:
            i += 1
            continue
        if ch in "+-*/()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_dot = False
            while j < size and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            lit = text[i:j]
            try:
                value = Fraction(lit)
            except (ValueError, ZeroDivisionError):
                raise ExprSyntaxError(f"malformed number {lit!r}", i) from None
            try:
                float(value)
            except OverflowError:
                raise ExprSyntaxError("number past the float range", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < size and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if name not in ("t", "n"):
                raise UnknownIdentifierError(f"unknown identifier {name!r}", i)
            tokens.append(("var", name, i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", size))
    return tokens


class _Parser:
    """Recursive descent.  Each rule returns its tree and the tree's height
    in levels, and the token that takes a height past ``MAX_DEPTH`` is
    refused.  Parentheses and unary minus signs are also counted on the way
    in (``open``), so that the descent stops as early."""

    def __init__(self, tokens: list[tuple[str, object, int]]):
        self.tokens = tokens
        self.k = 0
        self.open = 0

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.k]

    def take(self) -> tuple[str, object, int]:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def level(self, height: int, offset: int) -> int:
        if height > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", offset)
        return height

    def chain(self, ops: tuple[str, str], operand) -> tuple[Expr, int]:
        node, height = operand()
        while self.peek()[0] in ops:
            op, _, offset = self.take()
            right, right_height = operand()
            node = BinOp(op, node, right)
            height = self.level(max(height, right_height) + 1, offset)
        return node, height

    def expr(self) -> tuple[Expr, int]:
        return self.chain(("+", "-"), self.term)

    def term(self) -> tuple[Expr, int]:
        return self.chain(("*", "/"), self.factor)

    def factor(self) -> tuple[Expr, int]:
        kind, value, offset = self.take()
        if kind == "num":
            return Num(value), 1  # type: ignore[arg-type]
        if kind == "var":
            return Var(value), 1  # type: ignore[arg-type]
        if kind not in ("(", "-"):
            raise ExprSyntaxError("expected a number, 't', 'n', '(' or unary '-'", offset)
        self.open = self.level(self.open + 1, offset)
        if kind == "-":
            node, height = self.factor()
            node = Neg(node)
        else:
            node, height = self.expr()
            kind2, _, offset2 = self.take()
            if kind2 != ")":
                raise ExprSyntaxError("expected ')'", offset2)
        self.open -= 1
        return node, self.level(height + 1, offset)


def parse_expr(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises ExprSyntaxError (with byte offset) on malformed input, a tree
    deeper than ``MAX_DEPTH`` and a number past the float range, and
    UnknownIdentifierError for identifiers other than t and n.
    """
    parser = _Parser(_tokenize(text))
    node, _ = parser.expr()
    kind, _, offset = parser.peek()
    if kind != "end":
        raise ExprSyntaxError("unexpected trailing input", offset)
    return node


_SCALARS = (int, float, Fraction)


def _check_domain(t, n) -> None:
    """t >= 0 and n >= 1 everywhere; a NaN passes.  Python scalars are
    compared directly, since a numpy conversion costs more than the check."""
    if (t < 0) if isinstance(t, _SCALARS) else (np.asarray(t) < 0).any():
        raise ValueError("t must be nonnegative")
    if (n < 1) if isinstance(n, _SCALARS) else (np.asarray(n) < 1).any():
        raise ValueError("n must be >= 1")


def eval_expr(e: Expr, t, n):
    """Evaluate ``e`` at (t, n).

    ``t`` may be a scalar or a numpy array, ``n`` a scalar (or array of the
    same shape).  With int/Fraction arguments the arithmetic stays exact;
    float or array arguments evaluate in double precision.  Division by a
    zero value raises DivisionByZeroError.
    """
    _check_domain(t, n)
    exact = isinstance(t, (int, Fraction)) and isinstance(n, (int, Fraction))
    if exact:
        return _eval(e, t, n, exact)
    # overflow gives inf and inf - inf gives nan, as with Python floats,
    # and no RuntimeWarning reaches stderr
    with np.errstate(over="ignore", invalid="ignore"):
        return _eval(e, t, n, exact)


def _eval(e: Expr, t, n, exact: bool):
    if isinstance(e, Num):
        return e.value if exact else float(e.value)
    if isinstance(e, Var):
        return t if e.name == "t" else n
    if isinstance(e, Neg):
        return -_eval(e.operand, t, n, exact)
    if isinstance(e, BinOp):
        left = _eval(e.left, t, n, exact)
        right = _eval(e.right, t, n, exact)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if bool(np.any(np.asarray(right == 0))):
            raise DivisionByZeroError(f"division by zero in {unparse(e)!r}")
        return left / right
    raise TypeError(f"not an expression node: {e!r}")


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _format_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    den = q.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        digits = max(twos, fives)
        scaled = q.numerator * 10**digits // q.denominator
        s = str(scaled).rjust(digits + 1, "0")
        return s[:-digits] + "." + s[-digits:]
    # Not expressible as a decimal literal; only reachable for trees built
    # programmatically.  Value-preserving but not literally round-tripping.
    return f"({q.numerator}/{q.denominator})"


def unparse(e: Expr) -> str:
    """Render a tree back to source.  For parsed trees the rendering
    reparses to a structurally identical tree."""
    if isinstance(e, Num):
        return _format_fraction(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = unparse(e.operand)
        if isinstance(e.operand, BinOp):
            inner = f"({inner})"
        return "-" + inner
    if isinstance(e, BinOp):
        lhs = unparse(e.left)
        rhs = unparse(e.right)
        if isinstance(e.left, BinOp) and _PREC[e.left.op] < _PREC[e.op]:
            lhs = f"({lhs})"
        if isinstance(e.right, BinOp) and _PREC[e.right.op] <= _PREC[e.op]:
            rhs = f"({rhs})"
        return f"{lhs}{e.op}{rhs}"
    raise TypeError(f"not an expression node: {e!r}")


def mentions_n(e: Expr) -> bool:
    """Whether the variable n occurs in ``e``."""
    if isinstance(e, Var):
        return e.name == "n"
    if isinstance(e, Neg):
        return mentions_n(e.operand)
    if isinstance(e, BinOp):
        return mentions_n(e.left) or mentions_n(e.right)
    return False


# Two successive probes of limit_in_n closer than this settle the limit.
LIMIT_TOL = 1e-9


def limit_in_n(e: Expr, t):
    """Estimate the pointwise limit of e(t, n) as n grows.

    Probes n = 2**j for j = 4..40 and, at each t, keeps the value once two
    successive probes differ by less than ``LIMIT_TOL``.  ``t`` may be a scalar
    (a float is returned) or an array (an array of its shape is returned,
    also for expressions constant in t).  Raises LimitDivergenceError
    naming the first t where the ladder never stabilises.
    """
    x = float(t) if np.ndim(t) == 0 else np.asarray(t, dtype=float)
    shape = np.shape(x)
    result = np.empty(shape)
    unresolved = np.ones(shape, dtype=bool)
    prev = None
    for j in range(4, 41):
        cur = np.broadcast_to(np.asarray(eval_expr(e, x, float(2**j)), dtype=float), shape)
        if prev is not None:
            newly = unresolved & (np.abs(cur - prev) < LIMIT_TOL)
            result[newly] = cur[newly]
            unresolved &= ~newly
            if not unresolved.any():
                return result if shape else float(result)
        prev = cur
    bad = float(np.asarray(x)[unresolved][0])
    raise LimitDivergenceError(
        f"{unparse(e)!r} does not stabilise in n at t={bad} (tol={LIMIT_TOL})"
    )
