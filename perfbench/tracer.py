"""In-memory tracer for one weil2 process.

`Tracer.install()` wraps, from outside the package, the functions of every
weil2 module and rebinds every module-level name that refers to them, so
calls made through `from .x import f` bindings are traced too.  Three kinds
of wrapper, by layer:

* span (linalg and everything above it, and the `cyclotomic` arithmetic):
  calls, total time (outermost activation only, so recursion is not counted
  twice) and self time (duration minus the time of traced callees);
* counter (`galois` table operations): calls only, because a timing wrapper
  would cost more than the ~100 ns lookup it measures; their time stays in
  the caller's self time;
* counter for generator functions, whose body runs inside the consumer.

A few hooks add the counts the benchmark reports as ratios: distinct
`r_map` arguments, lifts built by `enumerate_submodule_lifts` against lifts
handed to `enhance_from_lift`, and bytes written by the CLI.
Everything stays in memory until `snapshot()`.
"""
from __future__ import annotations

import importlib
import inspect
from time import perf_counter

PACKAGE = "weil2"
SPAN_MODULES = ("cyclotomic", "linalg", "symplectic", "heisenberg", "witt",
                "models", "transport", "weil", "verify", "cli")
COUNT_MODULES = ("galois",)
# dunders that carry Cyc8 arithmetic; other dunders stay unwrapped
CYC8_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                  "__mul__", "__rmul__", "__truediv__", "__pow__")
# functions outside those rules whose boundaries the benchmark reads: the
# CLI's private writer, and the table build of the counted galois layer
EXTRA_SPANS = {"cli._print", "galois.ring"}
R_MAP = "symplectic.SympSpace.r_map"
LIFTS = "symplectic.SympSpace.enumerate_submodule_lifts"
ENHANCE = "symplectic.SympSpace.enhance_from_lift"
WRITE = "cli._print"


def freeze(x):
    """A hashable copy of nested lists/tuples of ints."""
    if isinstance(x, (list, tuple)):
        return tuple(freeze(y) for y in x)
    return x


class Tracer:
    def __init__(self):
        self.spans = {}      # name -> [calls, total_s, self_s, active]
        self.counts = {}     # name -> [calls]
        self._stack = [0.0]  # callee time accumulated by each open span
        self.r_map_args = set()
        self.lifts_built = 0
        self._built = set()
        self._enhanced = set()
        self.bytes_out = 0
        self._hooks = {R_MAP: self._on_r_map, LIFTS: self._on_lifts,
                       ENHANCE: self._on_enhance, WRITE: self._on_write}

    # -- hooks, run after the call returns ------------------------------------
    def _on_r_map(self, args, _out):
        self.r_map_args.add(freeze(args[1:]))

    def _on_lifts(self, _args, out):
        self.lifts_built += len(out)
        self._built.update(out)

    def _on_enhance(self, args, _out):
        self._enhanced.add(freeze(args[1]))

    def _on_write(self, args, _out):
        self.bytes_out += len(args[1].encode())

    # -- wrappers ---------------------------------------------------------------
    def _span(self, name, fn):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        hook = self._hooks.get(name)

        def span(*args, **kwargs):
            rec[0] += 1
            rec[3] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                rec[3] -= 1
                rec[2] += dt - stack.pop()
                stack[-1] += dt
                if not rec[3]:
                    rec[1] += dt
            if hook is not None:
                hook(args, out)
            return out

        return span

    def _counter(self, name, fn):
        rec = self.counts.setdefault(name, [0])

        def counter(*args, **kwargs):
            rec[0] += 1
            return fn(*args, **kwargs)

        return counter

    def _wrap(self, name, fn, timed):
        if timed and not inspect.isgeneratorfunction(fn):
            return self._span(name, fn)
        return self._counter(name, fn)

    # -- installation ---------------------------------------------------------------
    def install(self):
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}")
                   for m in SPAN_MODULES + COUNT_MODULES}
        replaced = {}
        for short, mod in modules.items():
            span_layer = short in SPAN_MODULES
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not attr.startswith("_") or name in EXTRA_SPANS:
                        replaced[obj] = self._wrap(
                            name, obj, span_layer or name in EXTRA_SPANS)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj, span_layer)
        for mod in [importlib.import_module(PACKAGE), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _wrap_class(self, short, cls, span_layer):
        is_cyc8 = cls.__name__ == "Cyc8"
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                wanted = attr in CYC8_OPERATORS if is_cyc8 else (
                    attr == "__init__" and span_layer)
            else:
                wanted = True
            if not wanted:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(obj, (staticmethod, classmethod)):
                setattr(cls, attr, type(obj)(self._wrap(name, obj.__func__, span_layer)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(name, obj, span_layer))

    # -- output ---------------------------------------------------------------------
    def snapshot(self):
        return {
            "spans": {k: v[:3] for k, v in sorted(self.spans.items()) if v[0]},
            "counts": {k: v[0] for k, v in sorted(self.counts.items()) if v[0]},
            "r_map_distinct": len(self.r_map_args),
            "lifts_built": self.lifts_built,
            "lifts_used": len(self._enhanced & self._built),
            "bytes_out": self.bytes_out,
        }
