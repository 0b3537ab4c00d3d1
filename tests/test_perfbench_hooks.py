"""The benchmark's tracer (perfbench/tracing.py) against the package.

The tracer wraps public functions by name.  A renamed or deleted kernel
function makes a traced run fail in `getattr`, and a missing public
function drops its per-layer metric without an error; both show here.
"""

import importlib.util
import sys
from pathlib import Path

import toricpolar
import toricpolar.cli  # noqa: F401  (the tracer wraps only loaded modules)
from toricpolar import maps
from toricpolar.constructions import cremona_poly
from toricpolar.field import PrimeField
from toricpolar.poly import Polynomial


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every attribute of every loaded toricpolar module and of
    `Polynomial`, keyed by (owner, name)."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "toricpolar"
                                   or name.startswith("toricpolar.")):
            for attr, value in vars(module).items():
                out[name, attr] = value
    for attr, value in vars(Polynomial).items():
        out["Polynomial", attr] = value
    return out


def test_tracer_wraps_every_hook_and_restores_every_binding():
    tracing = load_tracing()
    kernel = PrimeField().kernel
    before = bindings()
    tracer = tracing.Tracer()
    try:
        assert tracer.install(kernel) == []
        for modname, attr, _ in tracing.TRACED:
            key = ("toricpolar." + modname, attr)
            assert bindings()[key] is not before[key], key
        for attr in tracing.TRACED_KERNEL:
            assert getattr(kernel, attr) is not before[kernel.__name__, attr]
        for attr, _ in tracing.TRACED_METHODS:
            assert vars(Polynomial)[attr] is not before["Polynomial", attr]
        assert toricpolar.multidegrees is not before["toricpolar",
                                                     "multidegrees"]
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_traced_solve_gives_the_answer_and_the_basis_spans():
    """A traced `multidegrees` of Cremona n = 3 gives the untraced answer
    and books its grevlex base-locus basis, its block-order slice bases and
    its kernel products to the spans that the per-layer metrics read.  The
    products show only while the package calls the kernel as a module."""
    untraced = maps.multidegrees(maps.toric_polar_map(cremona_poly(3)))
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        assert tracer.install(PrimeField().kernel) == []
        traced = maps.multidegrees(maps.toric_polar_map(cremona_poly(3)))
    finally:
        tracer.uninstall()
    assert traced == untraced
    names = {span[1] for span in tracer.spans}
    assert {"groebner.buchberger_grevlex",
            "groebner.buchberger_block", "kernel.mul_terms"} <= names
