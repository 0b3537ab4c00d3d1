"""No `assert` statement in the package source.

`python -O` strips `assert`s, so an invariant written as one silently stops
being checked.  Invariants are raised as `ToricPolarError`s instead.
"""

import ast
from pathlib import Path

import toricpolar

SOURCES = sorted(Path(toricpolar.__file__).parent.glob("*.py"))


def test_package_sources_found():
    assert Path(toricpolar.__file__) in SOURCES


def test_no_assert_statements_in_package():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                            filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
