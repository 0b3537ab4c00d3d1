"""Kernel selection: compiled extension when available, pure Python otherwise.

The compiled kernel does coefficient arithmetic in 64-bit machine integers
and is therefore restricted to primes below 2^31; `kernel_for` routes larger
primes to the pure-Python twin.  `PrimeField(backend="python")` forces the
pure-Python kernel.
"""

from . import _kernel_py

_COEFF_LIMIT = 2**31

try:
    from . import _kernel_c
except ImportError:
    _kernel_c = None


def available_backends():
    backends = ["python"]
    if _kernel_c is not None:
        backends.append("cython")
    return tuple(backends)


def default_backend():
    if _kernel_c is not None:
        return "cython"
    return "python"


def kernel_for(p: int, backend: str | None = None):
    """Return the kernel module used for arithmetic modulo `p`.

    `backend` may be "python" or "cython" to force a choice; None picks the
    compiled kernel whenever it is usable for this prime.
    """
    if backend == "python":
        return _kernel_py
    if backend == "cython":
        if _kernel_c is None:
            raise ValueError("compiled kernel is not available")
        if p >= _COEFF_LIMIT:
            raise ValueError("compiled kernel requires a prime below 2^31")
        return _kernel_c
    if backend is not None:
        raise ValueError(f"unknown kernel backend {backend!r}")
    if _kernel_c is not None and p < _COEFF_LIMIT:
        return _kernel_c
    return _kernel_py
