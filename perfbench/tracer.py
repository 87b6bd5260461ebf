"""Layer tracing of the confcurves package from outside it.

``Tracer.install`` wraps the public functions of each package module, the
arithmetic of the jet classes, the curve-jet constructor, the family
``jet`` methods and ``cli.main``.  Modules import each other's functions
with ``from .x import y``, so every module-level binding of a wrapped
function is replaced, and ``uninstall`` puts every attribute back.

Each wrapped call is a frame with a layer-qualified name.  Its self time is
its duration minus the durations of the wrapped calls it made.  Frames
outside the jets layer are also kept as spans (name, start, end, parent,
invocation) in flat arrays and written out at the end; jet arithmetic runs
about a million times per trace deck, so its frames are counted and timed
but not stored.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("multilinear", "curves", "families", "mercator", "tractors", "symmetries")

# Jet arithmetic whose names start with an underscore; other underscored
# methods of the jet classes (_coerce, __repr__) are not traced.
JET_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "_sincos",
)

# Counted names used by the per-layer metrics.
JET_MUL = ("__mul__", "__rmul__")
JET_ELEMENTARY = ("recip", "sqrt", "exp", "_sincos")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, m) for m in (*MODULES, "jets", "cli")] + [package]
        self.patches = []  # (owner, attribute, original value)
        self.stack = []  # open frames: [name, start, child seconds, span id]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.names = []  # span name table
        self._name_ids = {}
        self.invocation = 0
        self._next_span = 0
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_invocation = array("i")

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name, store):
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = -1
            if store:
                span = self._next_span
                self._next_span += 1
            frame = [name, 0.0, 0.0, span]
            stack.append(frame)
            start = frame[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[2]
                calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                if store:
                    parent = -1
                    for outer in reversed(stack):
                        if outer[3] >= 0:
                            parent = outer[3]
                            break
                    self.span_id.append(span)
                    self.span_name.append(name_id)
                    self.span_start.append(start)
                    self.span_end.append(end)
                    self.span_parent.append(parent)
                    self.span_invocation.append(self.invocation)

        return traced

    def _patch(self, owner, attr, value):
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, fn, name):
        wrapped = self._wrap(fn, name, store=True)
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapped)

    def _patch_method(self, cls, attr, name, store):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self._wrap(raw.__func__, name, store)))
        else:
            self._patch(cls, attr, self._wrap(raw, name, store))

    def install(self):
        pkg = self.package
        for mod_name in MODULES:
            module = getattr(pkg, mod_name)
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._patch_function(fn, f"{mod_name}.{attr}")
        for cls in _classes(pkg.jets, "JetScalar", "JetVector"):
            for attr, raw in list(vars(cls).items()):
                method = raw.__func__ if isinstance(raw, classmethod) else raw
                if not inspect.isfunction(method):
                    continue
                if attr.startswith("_") and attr not in JET_OPERATORS and attr != "__init__":
                    continue
                self._patch_method(cls, attr, f"jets.{cls.__name__}.{attr}", store=False)
        for cls in _classes(pkg.curves, "CurveJet"):
            for attr in ("__init__", "from_derivatives"):
                if attr in vars(cls):
                    self._patch_method(cls, attr, f"curves.CurveJet.{attr}", store=True)
        for cls in _classes(pkg.families, "Circle", "LogSpiral", "TransformedSpiral"):
            if "jet" in vars(cls):
                self._patch_method(cls, "jet", "families.jet", store=True)
        self._patch_function(pkg.cli.main, "cli.main")
        return self

    def uninstall(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------- results

    def layer_self_s(self, layer):
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    def sum_self_s(self, *names):
        return sum(self.self_s[n] for n in names)

    def sum_calls(self, *names):
        return sum(self.calls[n] for n in names)

    @property
    def span_count(self):
        return len(self.span_name)

    def write_spans(self, path):
        """Spans as CSV in the order they ended; times in seconds from the
        earliest start, ``parent`` -1 for a top-level span."""
        t0 = min(self.span_start, default=0.0)
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,invocation\n")
            for k in range(len(self.span_id)):
                fh.write(
                    f"{self.span_id[k]},{self.names[self.span_name[k]]},{self.span_start[k] - t0:.9f},"
                    f"{self.span_end[k] - t0:.9f},{self.span_parent[k]},"
                    f"{self.span_invocation[k]}\n"
                )


def _classes(module, *names):
    """The named classes that ``module`` still defines.  A refactor that
    removes one (the jet core is due to become arrays) leaves its counts at
    zero instead of breaking the traced run."""
    return [getattr(module, n) for n in names if inspect.isclass(getattr(module, n, None))]
