"""Spans and counts at the boundaries of the package's layers.

The tracer wraps, from outside the package, every public function of each
layer module (its ``__all__``) in every ``blowdown`` module namespace that
binds it: the modules call one another through names bound at import time,
so wrapping only the defining module would miss those calls.
``DivisorClass.dot`` gets a span too.  The arithmetic and comparison
methods of ``fractions.Fraction`` are only counted, since a span per
``Fraction`` operation would cost more than the operation.  Generator
functions are counted, not spanned: their work runs in the consumer.

Spans are ``(name, layer, start, end, parent, op, raised)`` tuples kept in
memory and written out by :meth:`Tracer.dump` at the end of the run.
Only the ``blowdown`` call of each op runs with the wrappers installed.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from fractions import Fraction
from time import perf_counter

LAYERS = ("cli", "constructions", "lattice", "contraction", "topology", "tchains")

FRACTION_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__",
    "__neg__", "__pos__", "__abs__",
    "__eq__", "__lt__", "__gt__", "__le__", "__ge__",
)

# Per-layer metrics, each a mean per op: metric -> span name or layer.
CALL_COUNTS = {
    "lattice.dot.calls": "lattice.DivisorClass.dot",
    "lattice.blow_up.calls": "lattice.blow_up",
    "lattice.replays": "lattice.new_plane",
    "contraction.validate_embedding.calls": "contraction.validate_embedding",
    "contraction.pullback_canonical.calls": "contraction.pullback_canonical",
    "topology.blowdown_invariants.calls": "topology.blowdown_invariants",
    "tchains.hj_value.calls": "tchains.hj_value",
}
INCLUSIVE_MS = {
    "contraction.check_artin.ms": "contraction.check_artin",
    "contraction.expand_in_curves.ms": "contraction.expand_in_curves",
    "constructions.load_ms": "constructions.load_construction",
    "tchains.general_params.ms": "tchains.general_params",
    "tchains.generate_class_t.ms": "tchains.generate_class_t",
}
RAISED = {"contraction.raised": "contraction"}


class Tracer:
    """Builds the wrappers once; records spans and counts while installed."""

    def __init__(self) -> None:
        import blowdown.cli  # noqa: F401  (imports every layer module)
        from blowdown.lattice import DivisorClass

        self.spans: list = []
        self.calls: dict[str, int] = {}
        self.fraction_ops = 0
        self.op = -1
        self._stack: list[int] = []
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"blowdown.{layer}"]
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[fn] = self._wrap(fn, f"{layer}.{name}", layer)
        self._patches = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "blowdown" and not mod_name.startswith("blowdown."):
                continue
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value in wrapped:
                    self._patches.append((module, attr, value, wrapped[value]))
        dot = DivisorClass.dot
        self._patches.append((
            DivisorClass, "dot", dot,
            self._wrap(dot, "lattice.DivisorClass.dot", "lattice"),
        ))
        for name in FRACTION_METHODS:
            if name in vars(Fraction):
                method = vars(Fraction)[name]
                self._patches.append(
                    (Fraction, name, method, self._count_fraction(method))
                )

    def install(self) -> None:
        """Swap the wrappers in; the benchmark does so around each op only,
        so its own checks of the output are not counted."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _count_fraction(self, method):
        @functools.wraps(method)
        def counted(*args, **kwargs):
            self.fraction_ops += 1
            return method(*args, **kwargs)

        return counted

    def _wrap(self, fn, name: str, layer: str):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[name] = self.calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return counted

        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            raised = False
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, layer, start, end, parent, self.op, raised)

        return spanned

    # -- reduction --------------------------------------------------------

    def summary(self, ops: int) -> dict:
        """Per-layer self time, calls and exceptions, as means per op."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, layer, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_ms = dict.fromkeys(LAYERS, 0.0)
        calls = dict(self.calls)
        inclusive: dict[str, float] = {}
        raised: dict[str, int] = dict.fromkeys(LAYERS, 0)
        for i, (name, layer, start, end, parent, _, did_raise) in enumerate(spans):
            self_ms[layer] += (end - start - child_time[i]) * 1000
            calls[name] = calls.get(name, 0) + 1
            outer = parent < 0 or spans[parent][0] != name
            if outer:
                inclusive[name] = inclusive.get(name, 0.0) + (end - start) * 1000
            if did_raise and (parent < 0 or spans[parent][1] != layer):
                raised[layer] += 1
        out = {f"{layer}.self_ms": self_ms[layer] / ops for layer in LAYERS}
        for metric, name in CALL_COUNTS.items():
            out[metric] = calls.get(name, 0) / ops
        for metric, name in INCLUSIVE_MS.items():
            out[metric] = inclusive.get(name, 0.0) / ops
        for metric, layer in RAISED.items():
            out[metric] = raised[layer] / ops
        out["fraction.ops"] = self.fraction_ops / ops
        detail = {
            "calls_per_op": {k: v / ops for k, v in sorted(calls.items())},
            "raised_per_op": {k: v / ops for k, v in raised.items()},
        }
        return {"metrics": out, "detail": detail}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, layer, start, end, parent, op, did_raise in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "raised": did_raise,
                }) + "\n")
