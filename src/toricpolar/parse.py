"""Recursive-descent parser for polynomial text.

Grammar (whitespace insignificant):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := uint | ident | '(' expr ')'
    ident  matches [A-Za-z][A-Za-z0-9_]*

The optional leading '-' is accepted so that every string produced by the
canonical printer (which uses symmetric coefficient representatives) parses
back; parse-print-parse is a fixed point.
"""

from __future__ import annotations

import re
from typing import Sequence

from .errors import ParseError, PreconditionError
from .field import PrimeField
from .poly import Polynomial

# Each level of parentheses costs four Python frames (expr, term, factor,
# atom), so this limit keeps parsing far below the default recursion limit
# of 1000 even when the caller is already deep in the stack.
MAX_NESTING = 100

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN = re.compile(rf"\s*(?:(\d+)|({_IDENT.pattern})|([-+*^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1) is not None:
            tokens.append(("uint", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("ident", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, field: PrimeField, variables: Sequence[str]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.field = field
        self.names = list(variables)
        self.arity = len(self.names)
        self.index = {name: i for i, name in enumerate(self.names)}

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse_expr(self) -> Polynomial:
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value == "-":
            self.advance()
            negate = True
        result = self.parse_term()
        if negate:
            result = -result
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.parse_term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self) -> Polynomial:
        base = self.parse_atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind == "op" and value == "-":
                raise ParseError("negative exponent", pos)
            if kind != "uint":
                raise ParseError("expected a nonnegative integer exponent", pos)
            self.advance()
            return base ** int(value)
        return base

    def parse_atom(self) -> Polynomial:
        kind, value, pos = self.advance()
        if kind == "uint":
            return Polynomial.constant(self.field, self.arity, int(value))
        if kind == "ident":
            if value not in self.index:
                raise ParseError(f"unknown identifier {value!r}", pos)
            return Polynomial.variable(self.field, self.arity, self.index[value])
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", pos)
            self.depth += 1
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError("expected a number, identifier or '('", pos)


def parse_polynomial(text: str, variables: Sequence[str],
                     field: PrimeField | None = None) -> Polynomial:
    """Parse `text` into a fully expanded polynomial in the given variables.

    Integer literals are reduced modulo the field prime; every identifier
    must occur in `variables`, and every variable must be an identifier.
    """
    if field is None:
        field = PrimeField()
    names = list(variables)
    if len(set(names)) != len(names):
        raise PreconditionError("duplicate variable names")
    for name in names:
        if not _IDENT.fullmatch(name):
            raise PreconditionError(f"variable name {name!r} is not an identifier")
    parser = _Parser(_tokenize(text), field, names)
    result = parser.parse_expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return result
