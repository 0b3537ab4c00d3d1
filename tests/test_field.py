import pytest

from toricpolar import _kernel_py
from toricpolar.errors import PreconditionError
from toricpolar.field import DEFAULT_PRIME, PrimeField, is_prime
from toricpolar.maps import RandomizationConfig


def test_default_prime_is_mersenne():
    assert DEFAULT_PRIME == 2**31 - 1
    assert is_prime(DEFAULT_PRIME)


@pytest.mark.parametrize("n,expected", [
    (2, True), (3, True), (4, False), (1, False), (0, False),
    (65521, True), (65519, True), (65517, False),
    (999999937, True), (2147483647, True), (2147483649, False),
    (10**18 + 9, True), (10**18 + 7, False),
    # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to 2..37
    (318665857834031151167461, False),
    (3317044064679887385961813, True),  # the largest prime below psi_13
])
def test_is_prime(n, expected):
    assert is_prime(n) == expected


def test_is_prime_matches_a_sieve():
    sieve = [True] * 10**4
    sieve[0] = sieve[1] = False
    for i in range(2, 100):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, 10**4, i))
    assert [is_prime(n) for n in range(10**4)] == sieve


# strong pseudoprimes to the bases 2..7, 2..11 and 2..13
@pytest.mark.parametrize("n", [3215031751, 2152302898747, 3474749660383])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


# psi_13 = 1287836182261 * 2575672364521, a strong pseudoprime to 2..41,
# and the Mersenne prime 2^89 - 1 above it
@pytest.mark.parametrize("n", [3317044064679887385961981, 2**89 - 1])
def test_is_prime_rejects_moduli_from_psi_13(n):
    # raised on every call: the cache keeps no error
    for _ in range(2):
        with pytest.raises(PreconditionError):
            is_prime(n)
    with pytest.raises(PreconditionError):
        PrimeField(n)
    with pytest.raises(PreconditionError):
        RandomizationConfig(prime=n)


def test_rejects_composite_modulus():
    with pytest.raises(PreconditionError):
        PrimeField(91)


def test_field_arithmetic():
    F = PrimeField(65521)
    a = 12345
    assert F.inv(a) * a % 65521 == 1
    assert F.inv(a - 65521) == F.inv(a)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.inv(65521)


def test_symmetric_representative():
    F = PrimeField(101)
    assert F.symmetric(3) == 3
    assert F.symmetric(100) == -1
    assert F.symmetric(51) == -50
    assert F.symmetric(50) == 50


def test_field_equality_ignores_backend():
    a = PrimeField(65521)
    b = PrimeField(65521)
    assert a == b and hash(a) == hash(b)


def test_large_prime_uses_python_kernel():
    F = PrimeField(2**61 - 1)
    assert F.backend == "python"
    assert F.kernel is _kernel_py


@pytest.mark.parametrize("p", [65521, DEFAULT_PRIME, 2**31 + 11])
def test_every_prime_uses_the_one_kernel(p):
    F = PrimeField(p)
    assert F.kernel is _kernel_py
    assert F.backend == "python"
