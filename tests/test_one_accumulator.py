"""Only `_kernel_py` deletes from a term dict.

Every term-dict sum goes through `_kernel_py.add_into`: one reduction mod
p per added term, a key whose sum reaches 0 deleted, new keys in arrival
order.  Outside the kernel no package module has a sum loop of its own,
and so no `del` statement, so this rule has one owner.
"""

import ast
from pathlib import Path

import toricpolar


def test_only_the_kernel_deletes():
    found = []
    for path in sorted(Path(toricpolar.__file__).parent.glob("*.py")):
        if path.name == "_kernel_py.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Delete)]
    assert found == []
