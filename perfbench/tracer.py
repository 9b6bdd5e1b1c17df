"""Span tracer that wraps rowfibers' public functions from the outside.

Installing the tracer replaces each traced function by a wrapper, in every
``rowfibers`` module namespace that binds it (``ideals`` imports
``normal_form`` by name, ``syzygy`` imports ``module_groebner``, and so on)
and, for methods, on the class.  The wrapper records one span per call:
its id, the id of the nearest enclosing traced span, the layer name, start
and end.  Self time is a span's duration minus the time its child spans
cover; counts are kept at the same boundaries so that ratios are measured
where the work happens.  Spans stay in memory and are written out by
``write_spans`` when the pass ends.
"""

from __future__ import annotations

import json
import weakref
from array import array
from time import perf_counter

# (module, attribute path, layer).  A dotted path names a method on a class.
TRACED = [
    ("polyring", "Polynomial.__add__", "polyring.arith"),
    ("polyring", "Polynomial.__sub__", "polyring.arith"),
    ("polyring", "Polynomial.__mul__", "polyring.arith"),
    ("polyring", "Polynomial.scale", "polyring.arith"),
    ("polyring", "PolyRing.parse", "polyring.parse"),
    ("groebner", "reduced_groebner_basis", "groebner.gb"),
    ("groebner", "normal_form", "groebner.nf"),
    ("groebner", "eliminate_first", "groebner.eliminate"),
    ("groebner", "module_groebner", "groebner.module_gb"),
    ("groebner", "module_normal_form", "groebner.module_nf"),
    ("groebner", "syzygy_generators", "groebner.syzygy"),
    ("ideals", "Ideal.groebner", "ideals.groebner"),
    ("ideals", "Ideal.colon", "ideals.colon"),
    ("ideals", "Ideal.intersect", "ideals.intersect"),
    ("ideals", "Ideal.saturate", "ideals.saturate"),
    ("ideals", "Ideal.minimal_generators", "ideals.mingens"),
    ("ideals", "Ideal.dimension", "ideals.dimension"),
    ("syzygy", "minimize_columns", "syzygy.minimize"),
    ("syzygy", "PresentationMatrix.__init__", "syzygy.matrix_init"),
    ("syzygy", "rank_modulo_linear_ideal", "syzygy.rank_mod"),
    ("fibers", "MapContext.correspondence_fiber_ideal", "fibers.corr"),
    ("fibers", "MapContext.point_presentation", "fibers.presentation"),
    ("fibers", "MapContext.random_point", "fibers.random_point"),
    ("fibers", "MapContext.random_source_point", "fibers.random_source_point"),
    ("fibers", "MapContext.special_fiber_dimension", "fibers.special_fiber"),
    ("cli", "parse_problem", "cli.parse"),
    ("cli", "render_ideal", "cli.render"),
    ("cli", "render_codim", "cli.render"),
    ("cli", "render_point", "cli.render"),
    ("cli", "render_json", "cli.render"),
]

MODULES = ["polyring", "groebner", "ideals", "syzygy", "fibers", "cli"]

REQUEST = "request"


def _zero_remainder(result):
    if isinstance(result, tuple):  # normal_form(..., with_quotients=True)
        result = result[0]
    return result.is_zero()


class Tracer:
    """Records spans of traced calls made while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.names = [REQUEST]
        self._name_index = {REQUEST: 0}
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("q")
        self.span_request = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict = {}  # layer -> calls
        self.self_s: dict = {}  # layer -> seconds
        self.under: dict = {}  # (layer, parent layer) -> calls
        self.zero_under: dict = {}  # (layer, parent layer) -> zero results
        self.function_calls: dict = {}  # "module.attr" -> calls
        self.gb_hits = 0
        self.unconfirmed = 0
        self._gb_seen: dict = {}
        self._next_id = 1
        self._request = -1
        # each frame: [span id, layer, seconds covered by children]
        self._stack = [[0, REQUEST, 0.0]]
        self._installed = []

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Wrap every function in TRACED across all of the package's modules."""
        modules = {name: getattr(package, name) for name in MODULES}
        namespaces = [package] + list(modules.values())
        for module_name, path, layer in TRACED:
            owner = modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, layer, f"{module_name}.{path}")
            self._patch(owner, attr, original, wrapper)
            if not cls_path:
                for ns in namespaces:
                    if ns is not owner and ns.__dict__.get(attr) is original:
                        self._patch(ns, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _layer_index(self, layer):
        idx = self._name_index.get(layer)
        if idx is None:
            idx = self._name_index[layer] = len(self.names)
            self.names.append(layer)
        return idx

    # -- requests ----------------------------------------------------------

    def begin_request(self, index: int):
        self._request = index
        self.active = True

    def end_request(self):
        self.active = False

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, fn, layer, qualname):
        tracer = self
        layer_idx = self._layer_index(layer)
        stack = self._stack
        calls, self_s, under = self.calls, self.self_s, self.under
        function_calls = self.function_calls
        inspect = self._inspector(layer)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[2] += duration
                calls[layer] = calls.get(layer, 0) + 1
                self_s[layer] = self_s.get(layer, 0.0) + duration - frame[2]
                key = (layer, parent[1])
                under[key] = under.get(key, 0) + 1
                function_calls[qualname] = function_calls.get(qualname, 0) + 1
                tracer.span_id.append(sid)
                tracer.span_parent.append(parent[0])
                tracer.span_name.append(layer_idx)
                tracer.span_request.append(tracer._request)
                tracer.span_start.append(start)
                tracer.span_end.append(end)
            if inspect is not None:
                inspect(args, kwargs, result, parent[1])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _inspector(self, layer):
        if layer in ("groebner.nf", "groebner.module_nf"):
            zero = _zero_remainder if layer == "groebner.nf" else (lambda r: not r)

            def count_zero(args, kwargs, result, parent_layer):
                if zero(result):
                    key = (layer, parent_layer)
                    self.zero_under[key] = self.zero_under.get(key, 0) + 1

            return count_zero
        if layer == "ideals.groebner":
            return self._count_gb_hit
        if layer == "fibers.corr":

            def count_unconfirmed(args, kwargs, result, parent_layer):
                if result[2] is False:
                    self.unconfirmed += 1

            return count_unconfirmed
        return None

    def _count_gb_hit(self, args, kwargs, result, parent_layer):
        ideal = args[0]
        order = (args[1] if len(args) > 1 else kwargs.get("order")) or ideal.ring.default_order
        key = (id(ideal), order)
        seen = self._gb_seen.get(key)
        if seen is not None and seen[0]() is ideal and seen[1]() is result:
            self.gb_hits += 1
        else:
            self._gb_seen[key] = (weakref.ref(ideal), weakref.ref(result))

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """The per-layer metrics of everything traced so far."""
        calls, self_s, under, zero = self.calls, self.self_s, self.under, self.zero_under

        def ratio(num, den):
            return num / den if den else 0.0

        nf_spair = under.get(("groebner.nf", "groebner.gb"), 0)
        mnf_spair = under.get(("groebner.module_nf", "groebner.module_gb"), 0)
        draws = calls.get("fibers.random_point", 0)
        return {
            "polyring.arith.calls": calls.get("polyring.arith", 0),
            "polyring.arith.self_s": self_s.get("polyring.arith", 0.0),
            "polyring.parse.self_s": self_s.get("polyring.parse", 0.0),
            "groebner.gb.calls": calls.get("groebner.gb", 0),
            "groebner.gb.self_s": self_s.get("groebner.gb", 0.0),
            "groebner.nf.calls": calls.get("groebner.nf", 0),
            "groebner.nf.self_s": self_s.get("groebner.nf", 0.0),
            "groebner.nf.zero_ratio": ratio(
                zero.get(("groebner.nf", "groebner.gb"), 0), nf_spair
            ),
            "groebner.eliminate.calls": calls.get("groebner.eliminate", 0),
            "groebner.eliminate.self_s": self_s.get("groebner.eliminate", 0.0),
            "groebner.module_gb.calls": calls.get("groebner.module_gb", 0),
            "groebner.module_gb.self_s": self_s.get("groebner.module_gb", 0.0),
            "groebner.module_nf.calls": calls.get("groebner.module_nf", 0),
            "groebner.module_nf.self_s": self_s.get("groebner.module_nf", 0.0),
            "groebner.module_nf.zero_ratio": ratio(
                zero.get(("groebner.module_nf", "groebner.module_gb"), 0), mnf_spair
            ),
            "groebner.syzygy.self_s": self_s.get("groebner.syzygy", 0.0),
            "ideals.groebner.calls": calls.get("ideals.groebner", 0),
            "ideals.groebner.hit_ratio": ratio(
                self.gb_hits, calls.get("ideals.groebner", 0)
            ),
            "ideals.colon.calls": calls.get("ideals.colon", 0),
            "ideals.colon.self_s": self_s.get("ideals.colon", 0.0),
            "ideals.intersect.calls": calls.get("ideals.intersect", 0),
            "ideals.intersect.self_s": self_s.get("ideals.intersect", 0.0),
            "ideals.saturate.iterations": under.get(("ideals.colon", "ideals.saturate"), 0),
            "ideals.mingens.calls": calls.get("ideals.mingens", 0),
            "ideals.mingens.self_s": self_s.get("ideals.mingens", 0.0),
            "ideals.dimension.self_s": self_s.get("ideals.dimension", 0.0),
            "syzygy.minimize.self_s": self_s.get("syzygy.minimize", 0.0),
            "syzygy.minimize.module_gb_calls": under.get(
                ("groebner.module_gb", "syzygy.minimize"), 0
            ),
            "syzygy.matrix_init.self_s": self_s.get("syzygy.matrix_init", 0.0),
            "syzygy.rank_mod.self_s": self_s.get("syzygy.rank_mod", 0.0),
            "fibers.corr.calls": calls.get("fibers.corr", 0),
            "fibers.corr.self_s": self_s.get("fibers.corr", 0.0),
            "fibers.corr.steps": under.get(("ideals.colon", "fibers.corr"), 0),
            "fibers.corr.unconfirmed": self.unconfirmed,
            "fibers.presentation.self_s": self_s.get("fibers.presentation", 0.0),
            "fibers.sampling.draws": draws,
            "fibers.sampling.accept_ratio": ratio(
                calls.get("fibers.random_source_point", 0), draws
            ),
            "fibers.special_fiber.self_s": self_s.get("fibers.special_fiber", 0.0),
            "cli.parse.self_s": self_s.get("cli.parse", 0.0),
            "cli.render.self_s": self_s.get("cli.render", 0.0),
        }

    def write_spans(self, path):
        """Write every span as one JSON line: id, parent, layer, request, start, end."""
        with open(path, "w") as out:
            out.write(json.dumps({"layers": self.names}) + "\n")
            for row in zip(
                self.span_id, self.span_parent, self.span_name,
                self.span_request, self.span_start, self.span_end,
            ):
                out.write("%d %d %d %d %.9f %.9f\n" % row)
