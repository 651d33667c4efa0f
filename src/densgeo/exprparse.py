"""Tiny arithmetic grammar for specifying fields on the command line.

Supports numbers, pi, the coordinates x and y, the functions sin/cos/exp,
the four arithmetic operators with usual precedence, parentheses, and unary
minus.  Parsed once into a closure, then evaluated on grid coordinate
arrays, keeping reproduction scripts self-contained without eval().
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ValidationError
from .grid import PeriodicGrid

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[()+\-*/]))"
)

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": np.pi}


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            raise ValidationError(f"bad character in expression at: {text[pos:]!r}")
        pos = match.end()
        if match.lastgroup == "num":
            tokens.append(("num", float(match.group("num"))))
        elif match.lastgroup == "name":
            tokens.append(("name", match.group("name")))
        else:
            tokens.append(("op", match.group("op")))
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, op):
        kind, value = self.next()
        if kind != "op" or value != op:
            raise ValidationError(f"expected {op!r} in expression")

    def expression(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.next()
            right = self.term()
            node = (lambda l, r: (lambda env: l(env) + r(env)))(node, right) \
                if op == "+" else (lambda l, r: (lambda env: l(env) - r(env)))(node, right)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.next()
            right = self.factor()
            node = (lambda l, r: (lambda env: l(env) * r(env)))(node, right) \
                if op == "*" else (lambda l, r: (lambda env: l(env) / r(env)))(node, right)
        return node

    def factor(self):
        kind, value = self.peek()
        if (kind, value) == ("op", "-"):
            self.next()
            inner = self.factor()
            return lambda env: -inner(env)
        if (kind, value) == ("op", "+"):
            self.next()
            return self.factor()
        return self.atom()

    def atom(self):
        kind, value = self.next()
        if kind == "num":
            return lambda env, v=value: v
        if kind == "name":
            if value in _FUNCTIONS:
                fn = _FUNCTIONS[value]
                self.expect_op("(")
                inner = self.expression()
                self.expect_op(")")
                return lambda env: fn(inner(env))
            if value in _CONSTANTS:
                return lambda env, v=_CONSTANTS[value]: v
            if value in ("x", "y"):
                return lambda env, v=value: env[v]
            raise ValidationError(f"unknown name {value!r} in expression")
        if (kind, value) == ("op", "("):
            inner = self.expression()
            self.expect_op(")")
            return inner
        raise ValidationError("malformed expression")


def parse_expression(text: str):
    """Compile an expression string into a callable of an {'x':…, 'y':…} env."""
    parser = _Parser(_tokenize(text))
    fn = parser.expression()
    if parser.peek()[0] != "end":
        raise ValidationError(f"trailing input in expression: {text!r}")
    return fn


def evaluate_on_grid(text: str, grid: PeriodicGrid) -> np.ndarray:
    """Evaluate an expression at the grid nodes."""
    env = {"x": grid.coordinate(0)}
    env["y"] = grid.coordinate(1) if grid.dim > 1 else 0.0
    if grid.dim == 1 and re.search(r"\by\b", text):
        raise ValidationError("expression uses y on a one-dimensional grid")
    # overflow and 0/0 surface as non-finite values, which callers reject
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = parse_expression(text)(env)
    return np.broadcast_to(np.asarray(values, dtype=float), grid.shape).copy()
