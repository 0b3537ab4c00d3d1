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

The parser works on term dicts end to end.  A sum accumulates into one
dict through `_kernel_py.add_into`, the one accumulator of term sums: one
reduction mod p per added term, a key whose sum reaches 0 dropped.  In a
product the factors with one term fold into one monomial, whose
exponents add and whose coefficients multiply; only factors with several
terms go through `mul_terms`, or `pow_terms` for a power.  One `Polynomial`
is built at the end.  Its terms, in items and in insertion order, are those
of evaluating the text with `Polynomial` arithmetic, left to right.
"""

from __future__ import annotations

import re
from operator import add
from typing import Sequence

from . import _kernel_py
from .errors import ParseError, PreconditionError
from .field import PrimeField
from .poly import Polynomial

# Each level of parentheses costs two Python frames (expr, term), so this
# limit keeps parsing far below the default recursion limit
# of 1000 even when the caller is already deep in the stack.
MAX_NESTING = 100

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# a token, or in the last group a character that starts none
_TOKEN = re.compile(rf"\s*(?:(\d+)|({_IDENT.pattern})|([-+*^()])|(\S))")
_KINDS = (None, "uint", "ident", "op")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        k = m.lastindex
        if k == 4:
            raise ParseError(f"unexpected character {m.group(4)!r}",
                             m.start(4))
        tokens.append((_KINDS[k], m.group(k), m.start(k)))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Parses on term dicts.  A sum accumulates into one dict; a product
    folds its single-term factors into one monomial and multiplies only its
    factors with several terms; one `Polynomial` is built at the end."""

    def __init__(self, tokens, field: PrimeField, variables: Sequence[str]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.p = field.p
        self.arity = len(variables)
        self.index = {name: i for i, name in enumerate(variables)}

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

    def parse_expr(self) -> dict:
        """The terms of a sum, in one dict that each term adds into."""
        terms = {}
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = -1
        while True:
            self.add_term(terms, sign)
            kind, value, _ = self.peek()
            if kind != "op" or value not in "+-":
                return terms
            self.advance()
            sign = 1 if value == "+" else -1

    def add_term(self, terms: dict, sign: int):
        """Add `sign` times the next product to `terms` by `add_into`.

        A factor with one term (a number, a variable, or a group that
        reduced to one term), raised to its exponent, folds into one
        monomial: exponents add and coefficients multiply.  Only factors
        with several terms are multiplied, left to right, by `mul_terms`,
        and a power of one by `pow_terms`.  A product by a monomial moves
        every key one-to-one and scales every coefficient by a unit, so
        shifting and scaling the product of the other factors at the end
        gives the terms, and the order, of multiplying left to right.
        """
        p = self.p
        e = [0] * self.arity
        c = 1
        product = None  # the product of the factors with several terms
        while True:
            kind, value, pos = self.advance()
            if kind == "uint":
                c = c * pow(int(value), self.parse_exponent(), p) % p
            elif kind == "ident":
                i = self.index.get(value)
                if i is None:
                    raise ParseError(f"unknown identifier {value!r}", pos)
                e[i] += self.parse_exponent()
            elif kind == "op" and value == "(":
                if self.depth == MAX_NESTING:
                    raise ParseError(
                        f"parentheses nested deeper than {MAX_NESTING} "
                        f"levels", pos)
                self.depth += 1
                inner = self.parse_expr()
                self.expect_op(")")
                self.depth -= 1
                k = self.parse_exponent()
                if len(inner) > 1:
                    if k:
                        power = _kernel_py.pow_terms(inner, k, p)
                        product = (power if product is None else
                                   _kernel_py.mul_terms(product, power, p))
                elif inner:
                    (f, d), = inner.items()
                    e = [x + k * y for x, y in zip(e, f)]
                    c = c * pow(d, k, p) % p
                else:
                    c *= 0 ** k  # 0^0 is 1
            else:
                raise ParseError("expected a number, identifier or '('", pos)
            kind, value, _ = self.peek()
            if kind != "op" or value != "*":
                break
            self.advance()
        if not c:
            return
        if product is None:
            product = {tuple(e): 1}
        elif any(e):
            product = {tuple(map(add, t, e)): d for t, d in product.items()}
        _kernel_py.add_into(terms, product.items(), sign * c, p)

    def parse_exponent(self) -> int:
        """The exponent after '^', or 1 when there is none."""
        kind, value, _ = self.peek()
        if kind != "op" or value != "^":
            return 1
        self.advance()
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            raise ParseError("negative exponent", pos)
        if kind != "uint":
            raise ParseError("expected a nonnegative integer exponent", pos)
        self.advance()
        return int(value)


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
    terms = parser.parse_expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return Polynomial(field, len(names), terms, _clean=True)
