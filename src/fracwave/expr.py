"""Parser and evaluator for closed-form initial-condition expressions.

The grammar covers one free variable ``x``, numeric literals, unary negation,
the binary operators ``+ - * /``, right-associative ``^`` with a constant real
exponent, and the functions ``sin``, ``cos``, ``exp``.  Precedence from loose
to tight: ``+ -``, ``* /``, unary minus, ``^``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = ["EvaluationError", "Expression", "ParseError", "evaluate", "parse", "to_text"]


class ParseError(ValueError):
    """Syntax or identifier error, annotated with the offending position."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class EvaluationError(ArithmeticError):
    """Evaluation produced a non-finite value; carries the offending sub-expression."""

    def __init__(self, message: str, expression: "Expression"):
        self.expression = expression
        super().__init__(f"{message} in sub-expression '{to_text(expression)}'")


@dataclass(frozen=True)
class Literal:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Pow:
    base: "Expression"
    exponent: float  # constant real exponent by construction


@dataclass(frozen=True)
class Func:
    name: str  # sin, cos or exp
    arg: "Expression"


Expression = Union[Literal, Var, Neg, BinOp, Pow, Func]

_FUNCTIONS: dict[str, Callable] = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
MAX_TOKENS = 256  # longest expression accepted: it bounds every recursive walk of the tree


# --- tokenizer -------------------------------------------------------------

# After optional whitespace, one token; no group matches at the end of the
# text or before a character outside the grammar.  float() judges a number.
_TOKEN = re.compile(
    r"\s*(?:(?P<number>(?:\d|\.\d)[\d.]*(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[^\W\d]\w*)|(?P<op>[-+*/^()]))?"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) triples, closed by an ("end", "", len(text)) token."""
    tokens = []
    pos = 0
    while True:
        match = _TOKEN.match(text, pos)
        kind, pos = match.lastgroup, match.end()
        if kind is None:
            if pos < len(text):
                raise ParseError(f"unexpected character '{text[pos]}'", pos)
            tokens.append(("end", "", pos))
            return tokens
        lexeme, start = match.group(kind), match.start(kind)
        if len(tokens) == MAX_TOKENS:
            raise ParseError(f"expression has more than {MAX_TOKENS} tokens", start)
        if kind == "number":
            try:
                float(lexeme)
            except ValueError:
                raise ParseError(f"malformed number '{lexeme}'", start) from None
        tokens.append((kind, lexeme, start))


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0

    def position(self) -> int:
        return self.tokens[self.pos][2]

    def accept(self, ops: str) -> str | None:
        """Consume the next token and return its text if it is one of ops."""
        kind, text, _ = self.tokens[self.pos]
        if kind == "op" and text in ops:
            self.pos += 1
            return text
        return None

    def expect(self, op: str) -> None:
        if self.accept(op) is None:
            raise ParseError("syntax error", self.position(), expected=(f"'{op}'",))

    def parse_expression(self) -> Expression:
        node = self.parse_term()
        while op := self.accept("+-"):
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expression:
        node = self.parse_unary()
        while op := self.accept("*/"):
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Expression:
        if self.accept("-"):
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expression:
        base = self.parse_atom()
        caret = self.position()
        if self.accept("^"):
            start = self.pos
            exponent_expr = self.parse_unary()  # right associative: x^2^3 = x^(2^3)
            # constant: no token of the exponent is a name (x or a function)
            if any(kind == "name" for kind, _, _ in self.tokens[start:self.pos]):
                raise ParseError("exponent must be a constant expression", caret)
            return Pow(base, _fold_constant(exponent_expr, caret))
        return base

    def parse_atom(self) -> Expression:
        kind, text, position = self.tokens[self.pos]
        if kind == "number":
            self.pos += 1
            return Literal(float(text))
        if kind == "name":
            self.pos += 1
            if text == "x":
                return Var()
            if text in _FUNCTIONS:
                self.expect("(")
                arg = self.parse_expression()
                self.expect(")")
                return Func(text, arg)
            raise ParseError(f"unknown identifier '{text}'", position)
        if self.accept("("):
            node = self.parse_expression()
            self.expect(")")
            return node
        raise ParseError(
            "syntax error", position, expected=("number", "'x'", "function", "'('")
        )


def _fold_constant(expr: Expression, position: int) -> float:
    """Reduce a constant sub-expression (an exponent) to a finite float,
    through the evaluator and its finite checks."""
    try:
        # a literal such as 1e999 is already inf, so the result is checked too
        return _check_finite(evaluate(expr, 0.0), expr, "non-finite value")
    except EvaluationError as exc:
        raise ParseError(f"exponent must be a finite real number: {exc}", position) from None


def parse(text: str) -> Expression:
    """Parse expression text into an AST; rejects anything outside the grammar."""
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    node = parser.parse_expression()
    if parser.tokens[parser.pos][0] != "end":
        raise ParseError("trailing input", parser.position(), expected=("end of input",))
    # checked after the parse, so that an exponent such as x^1e999 is still
    # reported whole, at its caret, by the fold
    for kind, lexeme, position in tokens:
        if kind == "number" and math.isinf(float(lexeme)):
            raise ParseError(f"number '{lexeme}' overflows a double", position)
    return node


# --- evaluation ------------------------------------------------------------


def _all_finite(value) -> bool:
    return bool(np.all(np.isfinite(value)))


def _check_finite(value, node: Expression, what: str):
    if not _all_finite(value):
        raise EvaluationError(what, node)
    return value


def _eval(node: Expression, x: np.ndarray):
    """Value of node at x; floating-point warnings are off, as every
    non-finite intermediate is caught by a check here."""
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_eval(node.operand, x)
    if isinstance(node, BinOp):
        left = _eval(node.left, x)
        right = _eval(node.right, x)
        if node.op == "+":
            return _check_finite(left + right, node, "non-finite sum")
        if node.op == "-":
            return _check_finite(left - right, node, "non-finite difference")
        if node.op == "*":
            return _check_finite(left * right, node, "non-finite product")
        return _check_finite(np.divide(left, right), node, "division by zero")
    if isinstance(node, Pow):
        base = _eval(node.base, x)
        out = np.power(base, node.exponent)
        if _all_finite(out):
            return out
        # an infinite power of a finite non-zero base is an overflow
        overflow = np.isinf(out) & np.isfinite(base) & (base != 0)
        if np.all(overflow | np.isfinite(out)):
            raise EvaluationError("power overflows", node)
        raise EvaluationError(
            "invalid power (negative base with fractional exponent, or 0 to a negative power)", node
        )
    if isinstance(node, Func):
        arg = _eval(node.arg, x)
        return _check_finite(_FUNCTIONS[node.name](arg), node, f"non-finite result of {node.name}")
    raise TypeError(f"not an Expression node: {node!r}")


def evaluate(expr: Expression, value):
    """Evaluate at an ndarray (returns an ndarray of its shape) or at a
    number (returns a float).

    A non-finite argument, division by zero, fractional powers of negative
    numbers, 0 to a negative power, and overflow all raise EvaluationError
    rather than propagating NaN/inf.
    """
    x = np.asarray(value, dtype=float)
    if not _all_finite(x):
        raise EvaluationError("non-finite argument", expr)
    with np.errstate(all="ignore"):
        out = _eval(expr, x)
    if np.ndim(out) == 0:  # a constant expression, or a scalar argument
        out = np.full(x.shape, out)
    return out if isinstance(value, np.ndarray) else float(out)


def to_text(expr: Expression) -> str:
    """Render an AST back to parseable text (fully parenthesized where needed)."""
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, Var):
        return "x"
    if isinstance(expr, Neg):
        return f"-({to_text(expr.operand)})"
    if isinstance(expr, BinOp):
        return f"({to_text(expr.left)} {expr.op} {to_text(expr.right)})"
    if isinstance(expr, Pow):
        return f"({to_text(expr.base)})^({expr.exponent!r})"
    if isinstance(expr, Func):
        return f"{expr.name}({to_text(expr.arg)})"
    raise TypeError(f"not an Expression node: {expr!r}")
