"""Tiny arithmetic grammar for specifying fields on the command line.

Supports decimal numbers with an optional exponent (1, 2.5, .5, 1e-3,
2.5E+2), pi, the coordinates x and y, the functions sin/cos/exp,
the four arithmetic operators with usual precedence, parentheses, and unary
minus.  Parsed once into a closure, then evaluated on grid coordinate
arrays, keeping reproduction scripts self-contained without eval().

Whitespace around and between tokens is ignored.  An expression has at most
MAX_LENGTH characters, whitespace included, and nests parentheses (calls
included) at most MAX_DEPTH deep, or it is rejected with ValidationError.
Unary signs and operator runs are read in loops, so only parentheses
recurse, far inside Python's recursion limit.
"""

from __future__ import annotations

import re
from functools import reduce

import numpy as np

from .errors import ValidationError
from .grid import PeriodicGrid

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)|(?P<op>[()+\-*/]))"
)

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
_CONSTANTS = {"pi": np.pi}
MAX_LENGTH = 1000
MAX_DEPTH = 32


def _tokenize(text: str):
    if len(text) > MAX_LENGTH:
        raise ValidationError(f"expression longer than {MAX_LENGTH} characters")
    text = text.rstrip()  # a token's pattern skips the whitespace before it
    pos = depth = 0
    tokens = []
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            raise ValidationError(f"bad character in expression at: {text[pos:]!r}")
        pos = match.end()
        kind = match.lastgroup
        tokens.append((kind, float(match.group(kind)) if kind == "num" else match.group(kind)))
        depth += {"(": 1, ")": -1}.get(match.group("op"), 0)
        if depth > MAX_DEPTH:
            raise ValidationError(f"expression nests parentheses deeper than {MAX_DEPTH}")
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
        return self.chain(self.term, "+-")

    def term(self):
        return self.chain(self.factor, "*/")

    def chain(self, operand, ops):
        """Left-associative run of the binary operators in ``ops``, folded in
        a loop rather than nested closures; numpy ufuncs, so 1/0 gives inf
        (rejected by callers) even on constants."""
        first, rest = operand(), []
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            rest.append((_BINARY[self.next()[1]], operand()))
        return lambda env: reduce(lambda acc, op: op[0](acc, op[1](env)), rest, first(env))

    def factor(self):
        """Unary signs, read in a loop: an odd count of minus signs negates."""
        negate = False
        while self.peek() in (("op", "-"), ("op", "+")):
            negate ^= self.next()[1] == "-"
        node = self.atom()
        return (lambda env: -node(env)) if negate else node

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
