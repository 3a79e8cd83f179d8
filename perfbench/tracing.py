"""Per-layer tracing installed from outside the program.

`Tracer.install` replaces every function a qschub module defines, at every
module that binds it, with a timing wrapper, and wraps the methods of the
package's classes in place; `uninstall` puts the originals back.  A layer is
the module a function is defined in.  A layer's self time is the time its
calls ran minus the time covered by the wrapped calls they made.

Calls into the hot leaf layers (`poly`, `weyl`) run millions of times, so
they only update counters.  Every other call is kept in memory as a span
(operation, span id, parent span id, name, start, end) and written out by
`write_spans` when the run ends.

Times are reported at the reference speed of `yardstick.py`: `end_op` closes
an operation and multiplies the layer time it added by the operation's scale,
the same factor that scales the operation's wall and CPU time.
"""

from __future__ import annotations

import inspect
import json
import time

LAYERS = ("poly", "weyl", "schubert", "quantization", "parabolic", "quantum_ring",
          "selftest", "cli")
HOT_LAYERS = ("poly", "weyl")
CLASSES = {
    "poly": ("Polynomial",),
    "weyl": ("ParabolicContext",),
    "quantization": ("EchelonSlice",),
    "quantum_ring": ("StructureTable",),
}
# Private functions and methods that carry a layer's work, wrapped besides
# the public names.  EchelonSlice._mono_key is left out: it runs once per
# term comparison, millions of times.
PRIVATE = {"schubert": ("_divided_difference_in",),
           "quantization": ("_place_next_row", "_eliminate", "_pivot_for")}
# Dunder methods worth wrapping; every other dunder is left alone.
DUNDERS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
           "__rmul__", "__neg__", "__pow__")

# A group's time counts only its outermost call, so recursion and members of
# one group calling each other are not counted twice.
GROUPS = {
    "poly.mul": ("poly.Polynomial.__mul__", "poly.Polynomial.__rmul__"),
    "poly.add": ("poly.Polynomial.__add__", "poly.Polynomial.__radd__"),
    "poly.text": ("poly.format_polynomial", "poly.parse_polynomial",
                  "poly.polynomial_to_json", "poly.polynomial_from_json"),
    "schubert.dd": ("schubert._divided_difference_in",),
    "schubert.member": ("schubert.schubert_polynomial",),
    "schubert.expand": ("schubert.expand_in_schubert_basis",),
    "schubert.cauchy": ("schubert.cauchy_rhs",),
    "quantization.theta": ("quantization.theta",),
    "quantization.decompose_E": ("quantization.decompose_in_E",),
    "quantization.row_build": ("quantization.EchelonSlice._place_next_row",),
    "quantization.elimination": ("quantization.EchelonSlice._eliminate",),
    "parabolic.member": ("parabolic.parabolic_q_double_schubert",),
    "parabolic.expand": ("parabolic.expand_in_parabolic_basis",),
    "parabolic.theta_P": ("parabolic.theta_P",),
    "parabolic.cauchy": ("parabolic.parabolic_cauchy_rhs",),
    "weyl.weak_order_ideal": ("weyl.weak_order_ideal",),
    "quantum_ring.structure_constants": ("quantum_ring.structure_constants",),
    "quantum_ring.json": ("quantum_ring.StructureTable.to_json",
                          "quantum_ring.StructureTable.from_json"),
    "quantum_ring.root_sets": ("quantum_ring.chevalley_root_sets",
                               "quantum_ring.b_root_set"),
    "quantum_ring.chevalley": ("quantum_ring.verify_chevalley",
                               "quantum_ring.chevalley_rhs"),
    "quantum_ring.bijection": ("quantum_ring.bijection_check",),
    "selftest.suite": ("selftest.check_bijections", "selftest.check_cauchy",
                       "selftest.check_chevalley", "selftest.check_quantization"),
    "cli.main": ("cli.main",),
}
_EXPANSIONS = {"schubert.expand_in_schubert_basis": "schubert.expand_rounds",
               "parabolic.expand_in_parabolic_basis": "parabolic.expand_rounds"}

# (metric, unit, how to read it); see Tracer.metrics.
METRICS = (
    ("poly.mul_calls", "count", ("calls", "poly.mul")),
    ("poly.mul_s", "s", ("s", "poly.mul")),
    ("poly.term_products", "count", ("count", "poly.term_products")),
    ("poly.term_products_per_s", "1/s", ("rate", "poly.term_products", "poly.mul")),
    ("poly.add_calls", "count", ("calls", "poly.add")),
    ("poly.add_s", "s", ("s", "poly.add")),
    ("poly.text_s", "s", ("s", "poly.text")),
    ("schubert.dd_calls", "count", ("calls", "schubert.dd")),
    ("schubert.dd_s", "s", ("s", "schubert.dd")),
    ("schubert.dd_terms_in", "count", ("count", "schubert.dd_terms_in")),
    ("schubert.dd_terms_per_s", "1/s", ("rate", "schubert.dd_terms_in", "schubert.dd")),
    ("schubert.member_calls", "count", ("calls", "schubert.member")),
    ("schubert.member_s", "s", ("s", "schubert.member")),
    ("schubert.chain_cache_hits", "count", ("cache", "schubert", "_dd_from_top", "hits")),
    ("schubert.chain_cache_misses", "count", ("cache", "schubert", "_dd_from_top", "misses")),
    ("schubert.chain_cache_size", "count", ("cache", "schubert", "_dd_from_top", "currsize")),
    ("schubert.expand_calls", "count", ("calls", "schubert.expand")),
    ("schubert.expand_s", "s", ("s", "schubert.expand")),
    ("schubert.expand_rounds", "count", ("count", "schubert.expand_rounds")),
    ("schubert.cauchy_s", "s", ("s", "schubert.cauchy")),
    ("quantization.theta_calls", "count", ("calls", "quantization.theta")),
    ("quantization.theta_s", "s", ("s", "quantization.theta")),
    ("quantization.decompose_E_s", "s", ("s", "quantization.decompose_E")),
    ("quantization.rows_built", "count", ("calls", "quantization.row_build")),
    ("quantization.rows_unbuilt", "count", ("count", "quantization.rows_unbuilt")),
    ("quantization.eliminations", "count", ("calls", "quantization.elimination")),
    ("quantization.row_build_s", "s", ("s", "quantization.row_build")),
    ("quantization.slices", "count", ("count", "quantization.slices")),
    ("parabolic.member_calls", "count", ("calls", "parabolic.member")),
    ("parabolic.member_s", "s", ("s", "parabolic.member")),
    ("parabolic.chain_cache_size", "count", ("cache", "parabolic", "_p_dd", "currsize")),
    ("parabolic.expand_calls", "count", ("calls", "parabolic.expand")),
    ("parabolic.expand_s", "s", ("s", "parabolic.expand")),
    ("parabolic.expand_rounds", "count", ("count", "parabolic.expand_rounds")),
    ("parabolic.theta_P_s", "s", ("s", "parabolic.theta_P")),
    ("parabolic.cauchy_s", "s", ("s", "parabolic.cauchy")),
    ("weyl.calls", "count", ("calls", "weyl")),
    ("weyl.s", "s", ("s", "weyl")),
    ("weyl.weak_order_ideal_calls", "count", ("calls", "weyl.weak_order_ideal")),
    ("quantum_ring.structure_constants_calls", "count",
     ("calls", "quantum_ring.structure_constants")),
    ("quantum_ring.structure_constants_s", "s", ("s", "quantum_ring.structure_constants")),
    ("quantum_ring.json_s", "s", ("s", "quantum_ring.json")),
    ("quantum_ring.root_sets_calls", "count", ("calls", "quantum_ring.root_sets")),
    ("quantum_ring.root_sets_s", "s", ("s", "quantum_ring.root_sets")),
    ("quantum_ring.chevalley_s", "s", ("s", "quantum_ring.chevalley")),
    ("quantum_ring.bijection_s", "s", ("s", "quantum_ring.bijection")),
    ("selftest.suite_s", "s", ("s", "selftest.suite")),
    ("cli.main_s", "s", ("s", "cli.main")),
) + tuple((f"{layer}.self_s", "s", ("self", layer)) for layer in LAYERS)


def _size(f) -> int:
    return len(getattr(f, "terms", ()))


def _count_products(tracer, args):
    tracer.counts["poly.term_products"] += _size(args[0]) * (
        _size(args[1]) if hasattr(args[1], "terms") else 1)


def _count_dd_terms(tracer, args):
    tracer.counts["schubert.dd_terms_in"] += _size(args[2])


def _count_round(tracer, args):
    if tracer.stack:
        counter = _EXPANSIONS.get(tracer.stack[-1][2])
        if counter:
            tracer.counts[counter] += 1


def _keep_slice(tracer, args):
    tracer.slices.append(args[0])


HOOKS = {
    "poly.Polynomial.__mul__": _count_products,
    "poly.Polynomial.__rmul__": _count_products,
    "schubert._divided_difference_in": _count_dd_terms,
    "schubert.x_lead_vector": _count_round,
    "quantization.EchelonSlice.__init__": _keep_slice,
}


class Tracer:
    def __init__(self, package, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.stack: list = []  # frames: [child seconds, span id, name]
        self.groups: dict = {}  # group -> [open calls, calls, seconds]
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counts = {"poly.term_products": 0, "schubert.dd_terms_in": 0,
                       "schubert.expand_rounds": 0, "parabolic.expand_rounds": 0}
        self.slices: list = []
        self.spans: list = []
        self.scaled: dict = {}  # time totals at reference speed, see end_op
        self._closed: dict = {}  # raw time totals at the last end_op
        self.op = 0
        self._next_span = 0
        self._restore: list = []

    # -- installing ------------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        member_of = [g for g, names in GROUPS.items() if name in names] + [layer]
        groups = [self.groups.setdefault(g, [0, 0, 0.0]) for g in member_of]
        hook = HOOKS.get(name)
        keep = layer not in HOT_LAYERS
        stack, self_s, spans, clock = self.stack, self.self_s, self.spans, self.clock
        tracer = self

        def traced(*args, **kwargs):
            if hook is not None:
                hook(tracer, args)
            parent = stack[-1][1] if stack else 0
            if keep:
                tracer._next_span += 1
                span = tracer._next_span
            else:
                span = parent
            frame = [0.0, span, name]
            stack.append(frame)
            for g in groups:
                g[0] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                took = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                self_s[layer] += took - frame[0]
                for g in groups:
                    g[0] -= 1
                    g[1] += 1
                    if not g[0]:
                        g[2] += took
                if keep:
                    spans.append((tracer.op, span, parent, name, start, end))

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        targets = {}  # id(original) -> wrapper
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                is_fn = inspect.isfunction(obj) or hasattr(obj, "cache_info")
                if is_fn and getattr(obj, "__module__", None) == mod.__name__:
                    targets[id(obj)] = self._wrap(f"{layer}.{attr}", layer, obj)
        for mod in [self.package, *self.modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets:
                    self._patch(mod, attr, targets[id(obj)])
        for layer, names in CLASSES.items():
            for cls_name in names:
                self._wrap_class(layer, getattr(self.modules[layer], cls_name))

    def _wrap_class(self, layer, cls):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__"):
                if attr not in DUNDERS:
                    continue
            elif attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, staticmethod):
                new = staticmethod(self._wrap(name, layer, value.__func__))
            elif isinstance(value, classmethod):
                new = classmethod(self._wrap(name, layer, value.__func__))
            elif isinstance(value, property):
                new = property(self._wrap(name, layer, value.fget), value.fset, value.fdel,
                               value.__doc__)
            elif inspect.isfunction(value):
                new = self._wrap(name, layer, value)
            else:
                continue
            self._patch(cls, attr, new)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------------

    def _raw_times(self) -> dict:
        times = {group: entry[2] for group, entry in self.groups.items()}
        times.update((f"{layer}.self", s) for layer, s in self.self_s.items())
        return times

    def end_op(self, scale: float):
        """Close an operation: add the layer time it took, times `scale`, to
        the totals that `metrics` reports."""
        for key, total in self._raw_times().items():
            share = total - self._closed.get(key, 0.0)
            self.scaled[key] = self.scaled.get(key, 0.0) + share * scale
            self._closed[key] = total

    def metrics(self) -> dict:
        """Every per-layer metric; times cover the operations closed by `end_op`."""
        counts = dict(self.counts)
        counts["quantization.rows_unbuilt"] = sum(len(s.pending) for s in self.slices)
        counts["quantization.slices"] = len(self.slices)
        out = {}
        for metric, unit, (kind, *where) in METRICS:
            seconds = self.scaled.get(where[-1], 0.0)
            if kind == "calls":
                value = self.groups.get(where[-1], [0, 0, 0.0])[1]
            elif kind == "s":
                value = seconds
            elif kind == "count":
                value = counts[where[0]]
            elif kind == "rate":
                value = counts[where[0]] / seconds if seconds else 0.0
            elif kind == "cache":
                info = getattr(self.modules[where[0]], where[1]).cache_info()
                value = getattr(info, where[2])
            else:
                value = self.scaled.get(f"{where[0]}.self", 0.0)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path, keys: list):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"operations": keys,
                                     "fields": ["op", "span", "parent", "name", "start", "end"]}))
            handle.write("\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
