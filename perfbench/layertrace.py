"""Outside-in layer tracing: wrap the public function of each layer.

A target names a function by its defining module and attribute path
(``("carnotlab.flat_metric", "mollify")`` or, for a static method,
``("carnotlab.flat_metric", "MollifierSpec.build")``).  Installing the
tracer replaces that function object, by identity, in every loaded
``carnotlab`` module namespace that binds it, because modules import
layer functions by name (``mfg`` binds ``mollify`` itself, so patching
only ``flat_metric`` would miss every call from ``mfg``).  ``uninstall``
puts every original back.

Each wrapped call is a span.  Spans nest through a stack, so a layer's
self time is its duration minus the durations of the traced calls made
inside it.  Optional per-target counters read the call's arguments and
result (offsets per mollifier pass, LP rounds, bytes written, ...).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable

Counter = Callable[[tuple, dict, object], dict]

PACKAGE = "carnotlab"


def _package_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Spans and counters for a fixed set of layer functions."""

    def __init__(self, targets: dict[tuple[str, str], Counter | None]):
        self.targets = targets
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []  # child time accumulated per open span
        self._bindings: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, Callable] = {}  # strong refs keep ids unique

    @staticmethod
    def label(module: str, attr: str) -> str:
        """Metric prefix: module path inside the package, then the attribute."""
        return module.split(".", 1)[1].lstrip("_") + "." + attr

    def _wrap(self, fn: Callable, label: str, counter: Counter | None) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                self.calls[label] += 1
                self.self_s[label] += dur - child
            if counter is not None:
                for key, val in counter(args, kwargs, result).items():
                    self.counts[label + "." + key] += val
            return result

        self._wrappers[id(traced)] = traced
        return traced

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        for module in {m for m, _ in self.targets}:
            importlib.import_module(module)
        namespaces = _package_modules()
        for (module, attr), counter in self.targets.items():
            label = self.label(module, attr)
            owner_path, _, name = attr.rpartition(".")
            if owner_path:
                # a static method lives once, on its class
                owner = sys.modules[module]
                for part in owner_path.split("."):
                    owner = getattr(owner, part)
                raw = owner.__dict__[name]
                if not isinstance(raw, staticmethod):
                    raise TypeError(f"{module}.{attr} is not a static method")
                setattr(owner, name, staticmethod(self._wrap(raw.__func__, label, counter)))
                self._bindings.append((owner, name, raw))
                continue
            original = getattr(sys.modules[module], name)
            wrapper = self._wrap(original, label, counter)
            replaced = 0
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is original:
                        setattr(ns, key, wrapper)
                        self._bindings.append((ns, key, original))
                        replaced += 1
            if replaced == 0:
                raise RuntimeError(f"tracing {module}.{attr} replaced no binding")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._bindings):
            setattr(owner, key, original)
        self._bindings.clear()

    def leftover_wrappers(self) -> list[str]:
        """Names in package namespaces and classes still bound to a wrapper."""
        out = []
        for ns in _package_modules():
            for key, val in vars(ns).items():
                if id(val) in self._wrappers:
                    out.append(f"{ns.__name__}.{key}")
                if isinstance(val, type) and val.__module__.startswith(PACKAGE):
                    for ckey, cval in vars(val).items():
                        fn = cval.__func__ if isinstance(cval, staticmethod) else cval
                        if id(fn) in self._wrappers:
                            out.append(f"{ns.__name__}.{key}.{ckey}")
        return out

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
