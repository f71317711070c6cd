"""Parser and evaluator for closed-form initial-condition expressions.

The grammar covers one free variable ``x``, numeric literals, unary negation,
the binary operators ``+ - * /``, right-associative ``^`` with a constant real
exponent, and the functions ``sin``, ``cos``, ``exp``.  Precedence from loose
to tight: ``+ -``, ``* /``, unary minus, ``^``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np


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


# --- tokenizer -------------------------------------------------------------

_TOK_NUMBER = "number"
_TOK_NAME = "name"
_TOK_OP = "op"
_TOK_END = "end"


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            while i < n and (text[i].isdigit() or text[i] == "."):
                i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            lexeme = text[start:i]
            try:
                float(lexeme)
            except ValueError:
                raise ParseError(f"malformed number '{lexeme}'", start) from None
            tokens.append(_Token(_TOK_NUMBER, lexeme, start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token(_TOK_NAME, text[start:i], start))
            continue
        if c in "+-*/^()":
            tokens.append(_Token(_TOK_OP, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character '{c}'", i)
    tokens.append(_Token(_TOK_END, "", n))
    return tokens


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.peek()
        if tok.kind != _TOK_OP or tok.text != text:
            raise ParseError("syntax error", tok.position, expected=(f"'{text}'",))
        self.advance()

    def parse_expression(self) -> Expression:
        node = self.parse_term()
        while self.peek().kind == _TOK_OP and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expression:
        node = self.parse_unary()
        while self.peek().kind == _TOK_OP and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Expression:
        if self.peek().kind == _TOK_OP and self.peek().text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expression:
        base = self.parse_atom()
        if self.peek().kind == _TOK_OP and self.peek().text == "^":
            caret = self.advance()
            exponent_expr = self.parse_unary()  # right associative: x^2^3 = x^(2^3)
            exponent = _fold_constant(exponent_expr, caret.position)
            return Pow(base, exponent)
        return base

    def parse_atom(self) -> Expression:
        tok = self.peek()
        if tok.kind == _TOK_NUMBER:
            self.advance()
            return Literal(float(tok.text))
        if tok.kind == _TOK_NAME:
            self.advance()
            if tok.text == "x":
                return Var()
            if tok.text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_expression()
                self.expect_op(")")
                return Func(tok.text, arg)
            raise ParseError(f"unknown identifier '{tok.text}'", tok.position)
        if tok.kind == _TOK_OP and tok.text == "(":
            self.advance()
            node = self.parse_expression()
            self.expect_op(")")
            return node
        raise ParseError(
            "syntax error", tok.position, expected=("number", "'x'", "function", "'('")
        )


def _is_constant(expr: Expression) -> bool:
    """True for arithmetic on literals alone: no x and no function."""
    if isinstance(expr, Literal):
        return True
    if isinstance(expr, Neg):
        return _is_constant(expr.operand)
    if isinstance(expr, BinOp):
        return _is_constant(expr.left) and _is_constant(expr.right)
    if isinstance(expr, Pow):
        return _is_constant(expr.base)
    return False


def _fold_constant(expr: Expression, position: int) -> float:
    """Reduce a constant sub-expression (an exponent) to a finite float,
    through the evaluator and its finite checks."""
    if not _is_constant(expr):
        raise ParseError("exponent must be a constant expression", position)
    try:
        # a literal such as 1e999 is already inf, so the result is checked too
        return float(_check_finite(_eval(expr, None), expr, "non-finite value"))
    except EvaluationError as exc:
        raise ParseError(f"exponent must be a finite real number: {exc}", position) from None


def parse(text: str) -> Expression:
    """Parse expression text into an AST; rejects anything outside the grammar."""
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    node = parser.parse_expression()
    trailing = parser.peek()
    if trailing.kind != _TOK_END:
        raise ParseError("trailing input", trailing.position, expected=("end of input",))
    # checked after the parse, so that an exponent such as x^1e999 is still
    # reported whole, at its caret, by the fold
    for tok in tokens:
        if tok.kind == _TOK_NUMBER and math.isinf(float(tok.text)):
            raise ParseError(f"number '{tok.text}' overflows a double", tok.position)
    return node


# --- evaluation ------------------------------------------------------------


def _all_finite(value) -> bool:
    return np.all(np.isfinite(value)) if isinstance(value, np.ndarray) else math.isfinite(value)


def _check_finite(value, node: Expression, what: str):
    if not _all_finite(value):
        raise EvaluationError(what, node)
    return value


def _eval(node: Expression, x):
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
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.divide(left, right)
        return _check_finite(out, node, "division by zero")
    if isinstance(node, Pow):
        base = _eval(node.base, x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
        with np.errstate(over="ignore"):
            out = _FUNCTIONS[node.name](arg)
        return _check_finite(out, node, f"non-finite result of {node.name}")
    raise TypeError(f"not an Expression node: {node!r}")


def evaluate(expr: Expression, value):
    """Evaluate at a float (returns float) or at an ndarray (returns ndarray).

    Division by zero, fractional powers of negative numbers, 0 to a negative
    power, and overflow all raise EvaluationError rather than propagating
    NaN/inf.
    """
    if isinstance(value, np.ndarray):
        arr = np.asarray(value, dtype=float)
        out = _eval(expr, arr)
        return np.broadcast_to(np.asarray(out, dtype=float), arr.shape).copy() \
            if np.ndim(out) == 0 else np.asarray(out, dtype=float)
    if not math.isfinite(float(value)):
        raise EvaluationError("non-finite argument", expr)
    result = _eval(expr, float(value))
    return float(result)


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
