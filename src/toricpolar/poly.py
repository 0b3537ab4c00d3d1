"""Sparse multivariate polynomials over a prime field.

A Polynomial is immutable after construction and stores its terms as a dict
from exponent tuples (one nonnegative int per variable) to nonzero
coefficients in [1, p).  Monomial orders are supplied per algorithm, never
baked into the polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from . import _kernel_py
from .errors import PreconditionError
from .field import PrimeField


@dataclass(frozen=True)
class MonomialOrder:
    """Global monomial order: grevlex, lex, or block elimination.

    A block order compares the first `block` variables (grevlex) before the
    remaining ones, so it eliminates those leading variables.
    """

    kind: str = "grevlex"
    block: int = 0

    _CODES = {"grevlex": _kernel_py.GREVLEX, "lex": _kernel_py.LEX,
              "block": _kernel_py.BLOCK}

    def __post_init__(self):
        if self.kind not in self._CODES:
            raise ValueError(f"unknown monomial order {self.kind!r}")
        if self.kind == "block" and self.block < 1:
            raise ValueError("block order needs a positive leading block")
        object.__setattr__(self, "_key",
                           _kernel_py.order_key(self.code, self.block))

    @property
    def code(self) -> int:
        return self._CODES[self.kind]

    def key(self, e: tuple) -> tuple:
        """Sort key: bigger key = bigger monomial.  It is the tuple of the
        order's linear forms in e (see `_kernel_py.order_key`)."""
        return self._key(e)


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def block_order(k: int) -> MonomialOrder:
    """Elimination order for the first k variables."""
    return MonomialOrder("block", k)


class Polynomial:
    """Element of F_p[x_0, ..., x_{arity-1}], stored sparsely."""

    __slots__ = ("field", "arity", "terms")

    def __init__(self, field: PrimeField, arity: int,
                 terms: Mapping[tuple, int] | None = None, *, _clean=False):
        self.field = field
        self.arity = arity
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = dict(terms)
        else:
            clean = {}
            for e, c in terms.items():
                if len(e) != arity:
                    raise ValueError("exponent arity mismatch")
                if any(x < 0 for x in e):
                    raise ValueError("negative exponent")
                c %= field.p
                if c:
                    clean[tuple(e)] = c
            self.terms = clean

    # ---------------------------------------------------------------- constructors

    @classmethod
    def zero(cls, field: PrimeField, arity: int) -> Polynomial:
        return cls(field, arity, {}, _clean=True)

    @classmethod
    def constant(cls, field: PrimeField, arity: int, c: int) -> Polynomial:
        c %= field.p
        t = {(0,) * arity: c} if c else {}
        return cls(field, arity, t, _clean=True)

    @classmethod
    def variable(cls, field: PrimeField, arity: int, i: int) -> Polynomial:
        if not 0 <= i < arity:
            raise ValueError("variable index out of range")
        e = tuple(1 if j == i else 0 for j in range(arity))
        return cls(field, arity, {e: 1}, _clean=True)

    @classmethod
    def monomial(cls, field: PrimeField, arity: int, exponents: Sequence[int],
                 c: int = 1) -> Polynomial:
        return cls(field, arity, {tuple(exponents): c})

    # ---------------------------------------------------------------- basic queries

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def homogeneous_degree(self) -> int:
        """Degree of a homogeneous polynomial; raises on mixed degrees."""
        degrees = {sum(e) for e in self.terms}
        if len(degrees) > 1:
            raise PreconditionError("polynomial is not homogeneous")
        return degrees.pop() if degrees else -1

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def coefficient(self, exponents: Sequence[int]) -> int:
        return self.terms.get(tuple(exponents), 0)

    def leading_term(self, order: MonomialOrder = GREVLEX):
        """(exponent, coefficient) of the largest term; None when zero."""
        e = _kernel_py.leading_exponent(self.terms, order.code, order.block)
        if e is None:
            return None
        return e, self.terms[e]

    # ---------------------------------------------------------------- arithmetic

    def _wrap(self, terms: dict) -> Polynomial:
        return Polynomial(self.field, self.arity, terms, _clean=True)

    def _check_compatible(self, other: Polynomial):
        if self.field != other.field or self.arity != other.arity:
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.field, self.arity, other)
        self._check_compatible(other)
        return self._wrap(_kernel_py.add_into(dict(self.terms),
                                              other.terms.items(), 1,
                                              self.field.p))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.field, self.arity, other)
        self._check_compatible(other)
        return self._wrap(_kernel_py.add_into(dict(self.terms),
                                              other.terms.items(), -1,
                                              self.field.p))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return self._wrap(_kernel_py.add_into({}, self.terms.items(),
                                                  other, self.field.p))
        self._check_compatible(other)
        return self._wrap(_kernel_py.mul_terms(self.terms, other.terms,
                                               self.field.p))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return Polynomial.constant(self.field, self.arity, 1)
        return self._wrap(_kernel_py.pow_terms(self.terms, n, self.field.p))

    def __eq__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.field, self.arity, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.field == other.field and self.arity == other.arity
                and self.terms == other.terms)

    __hash__ = None

    def scaled_to_monic(self, order: MonomialOrder = GREVLEX) -> Polynomial:
        lt = self.leading_term(order)
        if lt is None:
            return self
        inv = self.field.inv(lt[1])
        return self * inv

    # ---------------------------------------------------------------- calculus

    def partial_derivative(self, i: int) -> Polynomial:
        if not 0 <= i < self.arity:
            raise PreconditionError("variable index out of range")
        return self._wrap(_kernel_py.add_into(
            {}, ((e[:i] + (e[i] - 1,) + e[i + 1:], c * e[i])
                 for e, c in self.terms.items() if e[i]), 1, self.field.p))

    # ---------------------------------------------------------------- substitution

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != self.arity:
            raise ValueError("point arity mismatch")
        p = self.field.p
        pt = [a % p for a in point]
        total = 0
        for e, c in self.terms.items():
            v = c
            for i, x in enumerate(e):
                if x:
                    v = v * pow(pt[i], x, p) % p
            total = (total + v) % p
        return total

    def substitute(self, images: Sequence[Polynomial]) -> Polynomial:
        """Compose: replace variable i by images[i] (all in one common ring).

        One call of `_kernel_py.substitute_terms` on this one polynomial."""
        if len(images) != self.arity:
            raise ValueError("need one image per variable")
        if not images:
            raise ValueError("cannot substitute in a ring without variables")
        target_field = images[0].field
        target_arity = images[0].arity
        for g in images:
            if g.field != target_field or g.arity != target_arity:
                raise ValueError("images from different rings")
        [terms] = _kernel_py.substitute_terms(
            [self.terms], [g.terms for g in images], target_arity,
            target_field.p)
        return Polynomial(target_field, target_arity, terms, _clean=True)

    def set_variable_zero(self, i: int) -> Polynomial:
        """Restriction to the hyperplane x_i = 0 (arity preserved)."""
        out = {e: c for e, c in self.terms.items() if e[i] == 0}
        return self._wrap(out)

    def dehomogenize(self, chart: int) -> Polynomial:
        """Set x_chart = 1 and drop that variable (arity shrinks by one)."""
        if not 0 <= chart < self.arity:
            raise ValueError("chart index out of range")
        out = _kernel_py.add_into(
            {}, ((e[:chart] + e[chart + 1:], c) for e, c in self.terms.items()),
            1, self.field.p)
        return Polynomial(self.field, self.arity - 1, out, _clean=True)

    def extend_arity(self, new_arity: int, position: int) -> Polynomial:
        """Insert a fresh (unused) variable slot at `position`."""
        if new_arity != self.arity + 1 or not 0 <= position <= self.arity:
            raise ValueError("bad arity extension")
        out = {e[:position] + (0,) + e[position:]: c for e, c in self.terms.items()}
        return Polynomial(self.field, new_arity, out, _clean=True)

    def drop_variable(self, position: int) -> Polynomial:
        """Remove a variable slot that no term uses."""
        for e in self.terms:
            if e[position]:
                raise ValueError("variable still in use")
        out = {e[:position] + e[position + 1:]: c for e, c in self.terms.items()}
        return Polynomial(self.field, self.arity - 1, out, _clean=True)

    def permute_variables(self, perm: Sequence[int]) -> Polynomial:
        """Relabel variables: new variable perm[i] carries old exponent of i."""
        if sorted(perm) != list(range(self.arity)):
            raise ValueError("not a permutation")
        out = {}
        for e, c in self.terms.items():
            d = [0] * self.arity
            for i, x in enumerate(e):
                d[perm[i]] = x
            out[tuple(d)] = c
        return self._wrap(out)

    # ---------------------------------------------------------------- divisibility

    def monomial_content(self) -> tuple[int, ...]:
        """Componentwise minimum exponent: the largest monomial dividing self."""
        if not self.terms:
            raise ValueError("zero polynomial has no monomial content")
        it = iter(self.terms)
        low = list(next(it))
        for e in it:
            for i, x in enumerate(e):
                if x < low[i]:
                    low[i] = x
        return tuple(low)

    def strip_monomial_content(self) -> Polynomial:
        """Divide out the monomial content (gcd with the coordinate monomials)."""
        low = self.monomial_content()
        if not any(low):
            return self
        out = {_kernel_py.exp_sub(e, low): c for e, c in self.terms.items()}
        return self._wrap(out)

    def divisible_by_variable(self, i: int) -> bool:
        return bool(self.terms) and all(e[i] > 0 for e in self.terms)

    def exact_divide(self, divisor: Polynomial) -> Polynomial | None:
        """self / divisor when the division is exact, else None."""
        self._check_compatible(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        quotient = _kernel_py.divide_terms(self.terms, divisor.terms,
                                           self.field.p)
        return None if quotient is None else self._wrap(quotient)

    # ---------------------------------------------------------------- printing

    def sorted_terms(self, order: MonomialOrder = GREVLEX):
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]),
                      reverse=True)

    def to_text(self, names: Sequence[str] | None = None) -> str:
        """Canonical text: descending grevlex terms, symmetric coefficients."""
        if names is None:
            names = [f"x{i}" for i in range(self.arity)]
        if len(names) != self.arity:
            raise ValueError("need one name per variable")
        if not self.terms:
            return "0"
        pieces = []
        for idx, (e, c) in enumerate(self.sorted_terms(GREVLEX)):
            c = self.field.symmetric(c)
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            factors = []
            for i, x in enumerate(e):
                if x == 1:
                    factors.append(names[i])
                elif x > 1:
                    factors.append(f"{names[i]}^{x}")
            if not factors or mag != 1:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if idx == 0:
                pieces.append(body if sign == "+" else f"-{body}")
            else:
                pieces.append(f" {sign} {body}")
        return "".join(pieces)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        text = self.to_text()
        if len(text) > 60:
            text = text[:57] + "..."
        return f"Polynomial({text!r} mod {self.field.p})"


def euler_identity_check(f: Polynomial) -> bool:
    """Whether sum_i x_i * df/dx_i equals deg(f) * f.

    Always true for homogeneous f when the characteristic exceeds the
    degree; non-homogeneous input is rejected.
    """
    if not f.is_homogeneous():
        raise PreconditionError("Euler identity needs homogeneous input")
    if f.is_zero():
        return True
    k = f.homogeneous_degree()
    total = Polynomial.zero(f.field, f.arity)
    for i in range(f.arity):
        total = total + Polynomial.variable(f.field, f.arity, i) * f.partial_derivative(i)
    return total == f * k
