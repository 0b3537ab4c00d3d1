"""`_kernel_py` has one heap loop and one inverse.

Every reduction of the kernel, exact division included, goes through
`_reduce_packed`, the one loop that pops pending terms off a heap, and
every reducer is made monic by `Reducers.append_remainder`, the one place
that inverts a coefficient.  So a change to the reduction step or to the
overflow retry has one place to go.
"""

import ast
from pathlib import Path

from toricpolar import _kernel_py

HEAP = {"heappop", "heappush", "heapify"}


def _calls(node, name=""):
    """(qualified name of the enclosing function or class, call) for each
    call under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _calls(child, f"{name}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Call):
            yield name, child
        yield from _calls(child, name)


def _callee(call):
    func = call.func
    return getattr(func, "id", None) or getattr(func, "attr", None)


def _is_inverse(call):
    if _callee(call) != "pow" or len(call.args) < 2:
        return False
    try:
        return ast.literal_eval(call.args[1]) == -1
    except ValueError:
        return False


def _kernel_calls():
    path = Path(_kernel_py.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(name, call.lineno, call) for name, call in _calls(tree)]


def test_only_reduce_packed_uses_the_heap():
    found = {(name, line) for name, line, call in _kernel_calls()
             if _callee(call) in HEAP}
    assert found
    assert {name for name, _ in found} == {"_reduce_packed"}, sorted(found)


def test_only_append_remainder_inverts():
    found = {(name, line) for name, line, call in _kernel_calls()
             if _is_inverse(call)}
    assert {name for name, _ in found} == {"Reducers.append_remainder"}, \
        sorted(found)
