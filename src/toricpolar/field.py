"""Prime fields F_p used as exact coefficient domains.

Elements are plain Python ints reduced into [0, p).  The field object
carries the modulus and inversion; the hot term arithmetic lives in the
one term kernel, `toricpolar._kernel_py`, which the polynomial and
Gröbner code call as a module.
"""

from . import _kernel_py
from .errors import PreconditionError

DEFAULT_PRIME = 2147483647  # 2^31 - 1, Mersenne

# The primes up to 41 decide every n below psi_13, the smallest strong
# pseudoprime to all of them (Sorenson & Webster, Math. Comp. 86, 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # psi_13


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below psi_13 (3.3 * 10^24)."""
    if n >= _MR_BOUND:
        raise PreconditionError(f"modulus {n} is not below {_MR_BOUND}")
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p."""

    __slots__ = ("p",)

    # read only by perfbench/: the kernel its tracer wraps, and its name
    kernel = _kernel_py
    backend = "python"

    def __init__(self, p: int = DEFAULT_PRIME):
        if not is_prime(p):
            raise PreconditionError(f"modulus {p} is not prime")
        if p == 2:
            raise PreconditionError("modulus 2 is too small for the degree "
                                    "ranges handled here")
        self.p = p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, -1, self.p)

    def symmetric(self, a: int) -> int:
        """Representative of a in (-p/2, p/2], for readable printing."""
        a %= self.p
        return a if a <= self.p // 2 else a - self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"
