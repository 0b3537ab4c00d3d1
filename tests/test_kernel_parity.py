"""The compiled kernel and the pure-Python kernel must agree exactly.

When the compiled kernel is not built in place, the tracked C source is
compiled into a temporary directory and loaded for this module only; the
package itself and every other test keep the kernel they imported.
"""

import importlib.util
import random
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from toricpolar import _kernel, _kernel_py

C_SOURCE = Path(_kernel.__file__).with_name("_kernel_c.c")


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The compiled kernel module, built from the tracked C source if need be."""
    if _kernel._kernel_c is not None:
        return _kernel._kernel_c
    include = sysconfig.get_paths()["include"]
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler (gcc) to build the compiled kernel")
    if not Path(include, "Python.h").is_file():
        pytest.skip("no Python headers to build the compiled kernel")
    if not C_SOURCE.is_file():
        pytest.skip(f"no C source {C_SOURCE.name} next to the package")
    out = (tmp_path_factory.mktemp("kernel")
           / ("_kernel_c" + sysconfig.get_config_var("EXT_SUFFIX")))
    build = subprocess.run(["gcc", "-O2", "-shared", "-fPIC", f"-I{include}",
                            str(C_SOURCE), "-o", str(out)],
                           capture_output=True, text=True)
    if build.returncode:
        pytest.fail(f"building the compiled kernel failed:\n{build.stderr}")
    spec = importlib.util.spec_from_file_location("toricpolar._kernel_c", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module", autouse=True)
def compiled(compiled_kernel):
    """Make kernel selection see the compiled kernel while this module runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "_kernel_c", compiled_kernel)
        yield compiled_kernel

P = 2147483647
ORDERS = [(0, 0), (1, 0), (2, 1), (2, 2)]


def random_terms(rng, arity=3, max_deg=5, max_terms=8):
    out = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(arity))
        out[e] = rng.randrange(1, P)
    return out


def test_backends_listed(compiled):
    assert set(_kernel.available_backends()) == {"python", "cython"}
    assert _kernel.kernel_for(P, "cython") is compiled
    assert _kernel.kernel_for(P, "python") is _kernel_py
    # primes at or above 2^31 must not select the compiled kernel
    assert _kernel.kernel_for(2**61 - 1) is _kernel_py
    with pytest.raises(ValueError):
        _kernel.kernel_for(2**61 - 1, "cython")
    with pytest.raises(ValueError):
        _kernel.kernel_for(P, "fortran")


def test_exponent_helpers_agree(compiled):
    rng = random.Random(0)
    for _ in range(300):
        e1 = tuple(rng.randint(0, 6) for _ in range(4))
        e2 = tuple(rng.randint(0, 6) for _ in range(4))
        for kind, block in ORDERS:
            assert (compiled.exp_cmp(e1, e2, kind, block)
                    == _kernel_py.exp_cmp(e1, e2, kind, block))
        assert compiled.exp_add(e1, e2) == _kernel_py.exp_add(e1, e2)
        assert compiled.exp_lcm(e1, e2) == _kernel_py.exp_lcm(e1, e2)
        assert compiled.exp_divides(e1, e2) == _kernel_py.exp_divides(e1, e2)
        if all(a >= b for a, b in zip(e1, e2)):
            assert compiled.exp_sub(e1, e2) == _kernel_py.exp_sub(e1, e2)


def test_arithmetic_agrees(compiled):
    rng = random.Random(1)
    for _ in range(150):
        a = random_terms(rng)
        b = random_terms(rng)
        c = rng.randrange(P)
        e = tuple(rng.randint(0, 3) for _ in range(3))
        assert compiled.add_terms(a, b, P) == _kernel_py.add_terms(a, b, P)
        assert compiled.sub_terms(a, b, P) == _kernel_py.sub_terms(a, b, P)
        assert compiled.neg_terms(a, P) == _kernel_py.neg_terms(a, P)
        assert compiled.scale_terms(a, c, P) == _kernel_py.scale_terms(a, c, P)
        assert compiled.term_mul(a, e, c, P) == _kernel_py.term_mul(a, e, c, P)
        assert compiled.mul_terms(a, b, P) == _kernel_py.mul_terms(a, b, P)


def test_leading_exponent_agrees(compiled):
    rng = random.Random(2)
    for _ in range(200):
        a = random_terms(rng)
        for kind, block in ORDERS:
            assert (compiled.leading_exponent(a, kind, block)
                    == _kernel_py.leading_exponent(a, kind, block))


def test_normal_form_agrees(compiled):
    rng = random.Random(3)
    for _ in range(60):
        f = random_terms(rng, max_terms=10)
        reducers = [random_terms(rng, max_terms=5)
                    for _ in range(rng.randint(1, 3))]
        for kind, block in ORDERS:
            lead_exps, lead_invs, tails = [], [], []
            for g in reducers:
                if not g:
                    continue
                g = dict(g)
                le = _kernel_py.leading_exponent(g, kind, block)
                lc = g.pop(le)
                lead_exps.append(le)
                lead_invs.append(pow(lc, P - 2, P))
                tails.append(g)
            got_c = compiled.normal_form_terms(
                f, lead_exps, lead_invs, tails, P, kind, block)
            got_py = _kernel_py.normal_form_terms(
                f, lead_exps, lead_invs, tails, P, kind, block)
            assert got_c == got_py


def test_full_pipeline_agrees_across_backends():
    from toricpolar.field import PrimeField
    from toricpolar.maps import (RandomizationConfig, multidegrees,
                                 toric_polar_map)
    from toricpolar.parse import parse_polynomial

    text = "4*x1^3 - x0*x1^2 - 18*x0*x1*x2 + 27*x0*x2^2 + 4*x0^2*x2"
    cfg = RandomizationConfig(seed=17)
    values = []
    for backend in ("python", "cython"):
        F = PrimeField(backend=backend)
        f = parse_polynomial(text, ("x0", "x1", "x2"), F)
        values.append(multidegrees(toric_polar_map(f), cfg).values)
    assert values[0] == values[1] == (1, 3, 2)
