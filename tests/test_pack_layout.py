"""Only `_kernel_py.Reducers` reads its pack layout.

The fields, guard bits, slots and width of the packed monomials belong to
`Reducers`: its divisor index, its row path, its pair update and its
standard set read them, and `Reducers.widen` alone re-packs.  `groebner`
works through its methods, so a widening of the fields has one place to
go.
"""

import ast
from pathlib import Path

from toricpolar import groebner

LAYOUT = {"low", "low_guards", "guards", "slot", "width", "shifts", "mask",
          "weights"}


def test_groebner_reads_no_pack_layout():
    path = Path(groebner.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{path.name}:{node.lineno} .{node.attr}"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in LAYOUT]
    assert found == []
