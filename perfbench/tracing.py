"""Outside-in spans around calls into the toricpolar layers.

`Tracer.install()` replaces every binding of the listed public functions
(module attributes in every loaded toricpolar module, so names imported with
`from .x import f` are covered too) by a wrapper that records one span per
call.  Nothing inside the package changes.  A span is the tuple

    (span_id, name, start, end, parent_id, input_id, size)

where `parent_id` is the innermost open span when the call began (0 at top
level), `input_id` is the benchmark input being solved, and `size` is a
result size where a metric needs one (basis length for Buchberger, number
of remainder terms for the kernel normal form), else None.  Spans are kept
in memory and written out by `write()` when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module name relative to toricpolar, attribute, span name or None for
# "<module>.<attribute>").  Buchberger gets its span name from the order.
TRACED = [
    ("cli", "main", None),
    ("constructions", "verify_propositions", None),
    ("curves", "plane_degree_formula", None),
    ("curves", "total_milnor", None),
    ("curves", "distinct_intersections_off_coordinates", None),
    ("curves", "reducible_composition_check", None),
    ("curves", "milnor_at_point", None),
    ("classes", "csm_standard_complement", None),
    ("classes", "euler_standard_complement", None),
    ("classes", "csm_complement_of_hypersurface", None),
    ("classes", "check_union_general_section", None),
    ("classes", "toric_from_gradient", None),
    ("maps", "toric_polar_map", "maps.map_build"),
    ("maps", "gradient_map", "maps.map_build"),
    ("maps", "multidegrees", None),
    ("maps", "random_translate", None),
    ("maps", "monomial_pullback", None),
    ("parse", "parse_polynomial", None),
    ("gcdtools", "squarefree_part", None),
    ("gcdtools", "multivariate_gcd", None),
    ("groebner", "saturate", None),
    ("groebner", "intersect", None),
    ("groebner", "eliminate", None),
    ("groebner", "hilbert_dim_degree", "groebner.hilbert"),
    ("groebner", "vector_space_dimension", None),
    ("groebner", "buchberger", None),
]

# Methods of toricpolar.poly.Polynomial.
TRACED_METHODS = [("substitute", "poly.substitute")]

# Functions of the kernel module selected by PrimeField().
TRACED_KERNEL = ["normal_form_terms", "mul_terms"]


def _buchberger_name(args, kwargs):
    order = args[1] if len(args) > 1 else kwargs.get("order")
    kind = "grevlex" if order is None else order.kind
    return "groebner.buchberger_" + kind


def _len(result):
    return len(result)


class Tracer:
    """Records spans for the calls listed in TRACED while installed."""

    def __init__(self):
        self.spans = []
        self.input_id = -1
        self._stack = [0]
        self._next_id = 1
        self._restore = []

    def _wrap(self, fn, name, size_of=None, name_of=None):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name_of(args, kwargs) if name_of else name,
                              start, end, parent, tracer.input_id,
                              size_of(result) if size_of and result is not None
                              else None))
        return traced

    def _rebind(self, original, wrapper):
        """Point every toricpolar binding of `original` at `wrapper`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "toricpolar"
                                   or modname.startswith("toricpolar.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def install(self, kernel):
        """Wrap every traced function; `kernel` is PrimeField().kernel."""
        missing = []
        for modname, attr, name in TRACED:
            mod = sys.modules.get("toricpolar." + modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                missing.append(f"{modname}.{attr}")
                continue
            if attr == "buchberger":
                wrapper = self._wrap(fn, None, _len, _buchberger_name)
            else:
                wrapper = self._wrap(fn, name or f"{modname}.{attr}")
            self._rebind(fn, wrapper)
        poly_cls = sys.modules["toricpolar.poly"].Polynomial
        for attr, name in TRACED_METHODS:
            fn = poly_cls.__dict__[attr]
            setattr(poly_cls, attr, self._wrap(fn, name))
            self._restore.append((poly_cls, attr, fn))
        for attr in TRACED_KERNEL:
            fn = getattr(kernel, attr)
            size_of = _len if attr == "normal_form_terms" else None
            setattr(kernel, attr, self._wrap(fn, "kernel." + attr, size_of))
            self._restore.append((kernel, attr, fn))
        return missing

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path, context):
        """Write the run context and every span as JSON."""
        fields = ["id", "name", "start", "end", "parent", "input", "size"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"context": context, "fields": fields,
                       "spans": self.spans}, fh)


def _index(spans):
    """Span id -> name and span id -> parent id."""
    return ({span[0]: span[1] for span in spans},
            {span[0]: span[4] for span in spans})


def _inside(sid, name, names, parents) -> bool:
    """Whether span `sid` runs inside a span called `name`."""
    p = parents[sid]
    while p:
        if names[p] == name:
            return True
        p = parents[p]
    return False


def layer_report(spans, solve_s):
    """Per-layer figures from the spans of one traced pass.

    Returns a dict name -> {"calls", "s", "self_s", "sizes", "zeros"}:
    `s` counts only the outermost span of each name (a recursive call is
    not counted twice), `self_s` is the span's duration minus the time its
    direct children cover.  Also returns the time outside every span, so
    that the self times of all names plus that remainder equal `solve_s`.
    """
    names, parents = _index(spans)
    child_time = {}
    for _sid, _name, start, end, parent, _input, _size in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    layers = {}
    for sid, name, start, end, _parent, _input, size in spans:
        row = layers.get(name)
        if row is None:
            row = layers[name] = {"calls": 0, "s": 0.0, "self_s": 0.0,
                                  "sizes": 0, "zeros": 0}
        dur = end - start
        row["calls"] += 1
        row["self_s"] += dur - child_time.get(sid, 0.0)
        if size is not None:
            row["sizes"] += size
            row["zeros"] += size == 0
        if not _inside(sid, name, names, parents):
            row["s"] += dur
    return layers, solve_s - child_time.get(0, 0.0)


def count_inside(spans, name, ancestor):
    """Number of spans called `name` that run inside a span `ancestor`."""
    names, parents = _index(spans)
    return sum(1 for span in spans
               if span[1] == name and _inside(span[0], ancestor, names, parents))
