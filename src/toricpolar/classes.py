"""Integer Chow-class arithmetic on P^n, truncated at h^(n+1).

A class sum_i c_i h^i cap [P^n] is stored as the coefficient vector
(c_0, ..., c_n).  The CSM class of the standard complement (the complement
of a hypersurface and all coordinate hyperplanes) is read off the toric
polar multidegrees; the CSM class of the plain hypersurface complement is
read off the gradient multidegrees.  Binomial transforms connect the two
multidegree vectors in general position.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .errors import PreconditionError


def _values(d) -> tuple[int, ...]:
    return tuple(getattr(d, "values", d))


@dataclass(frozen=True)
class ChowClassVector:
    """Coefficients (c_0, ..., c_n) of sum c_i h^i cap [P^n]."""

    coefficients: tuple[int, ...]

    def __init__(self, coefficients: Sequence[int]):
        object.__setattr__(self, "coefficients", tuple(int(c) for c in coefficients))
        if not self.coefficients:
            raise ValueError("empty class vector")

    @property
    def n(self) -> int:
        return len(self.coefficients) - 1

    @property
    def euler_characteristic(self) -> int:
        """Degree of the class: the coefficient of h^n."""
        return self.coefficients[-1]

    def _check(self, other: ChowClassVector):
        if self.n != other.n:
            raise ValueError("classes on different projective spaces")

    def __add__(self, other: ChowClassVector) -> ChowClassVector:
        self._check(other)
        return ChowClassVector([a + b for a, b in
                                zip(self.coefficients, other.coefficients)])

    def __sub__(self, other: ChowClassVector) -> ChowClassVector:
        self._check(other)
        return ChowClassVector([a - b for a, b in
                                zip(self.coefficients, other.coefficients)])

    def __mul__(self, other):
        if isinstance(other, int):
            return ChowClassVector([other * c for c in self.coefficients])
        self._check(other)
        n = self.n
        out = [0] * (n + 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    if i + j > n:
                        break
                    out[i + j] += a * b
        return ChowClassVector(out)

    __rmul__ = __mul__

    def __pow__(self, m: int) -> ChowClassVector:
        if m < 0:
            raise ValueError("negative power")
        out = ChowClassVector([1] + [0] * self.n)
        for _ in range(m):
            out = out * self
        return out


def one_plus_h(n: int, power: int = 1) -> ChowClassVector:
    """(1+h)^power truncated at h^(n+1), for nonnegative power."""
    return ChowClassVector([comb(power, i) for i in range(n + 1)])


def csm_standard_complement(d) -> ChowClassVector:
    """CSM class of the standard complement from toric polar multidegrees:
    coefficient c_i = (-1)^i d_i."""
    values = _values(d)
    return ChowClassVector([(-1) ** i * v for i, v in enumerate(values)])


def euler_standard_complement(d) -> int:
    """chi of the standard complement: (-1)^n d_n."""
    values = _values(d)
    n = len(values) - 1
    return (-1) ** n * values[-1]


def euler_divisor_complement(d) -> int:
    """chi of the hypersurface minus the coordinate hyperplanes:
    (-1)^(n-1) d_n."""
    values = _values(d)
    n = len(values) - 1
    return (-1) ** (n - 1) * values[-1]


def csm_complement_of_hypersurface(g) -> ChowClassVector:
    """CSM class of P^n minus the hypersurface, from gradient multidegrees:
    sum_i (-1)^i g_i h^i (1+h)^(n-i) (Huh, J. Amer. Math. Soc. 25, 2012),
    so coefficient r is sum_(i<=r) (-1)^i g_i C(n-i, r-i)."""
    values = _values(g)
    n = len(values) - 1
    return ChowClassVector([sum((-1) ** i * values[i] * comb(n - i, r - i)
                                for i in range(r + 1))
                            for r in range(n + 1)])


def toric_from_gradient(g) -> tuple[int, ...]:
    """d_r = sum_j C(r, j) g_j."""
    values = _values(g)
    return tuple(sum(comb(r, j) * values[j] for j in range(r + 1))
                 for r in range(len(values)))


def gradient_from_toric(d) -> tuple[int, ...]:
    """Inverse binomial transform: g_r = sum_j (-1)^(r-j) C(r, j) d_j."""
    values = _values(d)
    return tuple(sum((-1) ** (r - j) * comb(r, j) * values[j]
                     for j in range(r + 1))
                 for r in range(len(values)))


def check_union_general_section(csm_complement_D: ChowClassVector,
                                csm_standard: ChowClassVector) -> bool:
    """Hyperplane-twist identity for a hypersurface in general position:
    csm(P^n minus D) = (1+h)^(n+1) * csm(standard complement), truncated."""
    if csm_complement_D.n != csm_standard.n:
        raise ValueError("classes on different projective spaces")
    n = csm_standard.n
    return csm_complement_D == one_plus_h(n, n + 1) * csm_standard


def deg_from_milnor_general_position(k: int, n: int, milnor_sum: int) -> int:
    """Toric polar degree of a general translate of a degree-k hypersurface
    with isolated singularities: k^n - sum of Milnor numbers."""
    if k < 1 or n < 1 or milnor_sum < 0:
        raise PreconditionError("need k >= 1, n >= 1, milnor_sum >= 0")
    return k ** n - milnor_sum
