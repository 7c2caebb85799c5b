"""Span tracer that wraps the public functions of the loschmidt modules.

The wrapping is done from outside the package: every public module-level
function and every public method of a class defined in one of the layer
modules is replaced by a wrapper that records a span (name, start, end,
parent).  Names that other loschmidt modules imported with ``from .x import
y`` are rebound too, so calls between modules are seen.  Properties and
dunder methods are left alone.  ``Tracer.installed()`` restores every
original binding on exit.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "presets",
    "states",
    "hamiltonians",
    "dynamics",
    "estimators",
    "qgrid",
    "spectra",
    "cli",
)
ROOT = "bench"


class Tracer:
    """In-memory spans.  ``spans[i] = [name, start, end, parent, child_s]``,
    where ``child_s`` is the summed duration of the direct children."""

    def __init__(self, hooks=None):
        self.spans = []
        self._stack = []
        # name -> hook(bound_arguments, result, counts) run after each call
        self.hooks = hooks or {}
        self.counts = {}

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, 0.0])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        idx = self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if span[3] is not None:
            self.spans[span[3]][4] += span[2] - span[1]

    @contextlib.contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, fn, name):
        hook = self.hooks.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if hook is not None:
                hook(sig.bind(*args, **kwargs).arguments, result, self.counts)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public function of the layer modules for the block."""
        undo = []
        # import every layer first, so that each rebinding reaches all of them
        modules = {layer: importlib.import_module(f"loschmidt.{layer}") for layer in LAYERS}
        try:
            for layer, module in modules.items():
                for attr, obj in list(vars(module).items()):
                    if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                        continue
                    if inspect.isfunction(obj):
                        _rebind_everywhere(obj, self.wrap(obj, f"{layer}.{attr}"), undo)
                    elif inspect.isclass(obj):
                        _wrap_methods(self, obj, f"{layer}.{attr}", undo)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def durations(self, name):
        """Summed duration of spans called ``name`` and their count."""
        total, calls = 0.0, 0
        for span in self.spans:
            if span[0] == name:
                total += span[2] - span[1]
                calls += 1
        return total, calls

    def self_time(self, predicate):
        """Summed self time (duration minus direct children) of matching spans."""
        return sum(
            (s[2] - s[1]) - s[4] for s in self.spans if predicate(s[0])
        )


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _rebind_everywhere(original, wrapper, undo):
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "loschmidt" or mod_name.startswith("loschmidt.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)


def _wrap_methods(tracer, cls, prefix, undo):
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(tracer.wrap(raw.__func__, f"{prefix}.{attr}"))
        elif inspect.isfunction(raw):
            wrapped = tracer.wrap(raw, f"{prefix}.{attr}")
        else:
            continue
        undo.append((cls, attr, raw))
        setattr(cls, attr, wrapped)
