"""Span tracing through module-attribute shims; the package source is untouched.

``Tracer.install`` wraps every public function of the traced ``ttcomplete``
modules and replaces each reference to it in every ``ttcomplete`` module
namespace, so calls made through ``from .x import f`` names are seen too.
``SparseObservations.__post_init__`` is wrapped on its class, which times
observation validation. ``uninstall`` restores the originals.

A span records its name (``module.function``), start and end
(``time.perf_counter`` seconds), the index of its parent span and the op id
set by the harness. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref
from contextlib import contextmanager

LAYERS = ("cli", "complete", "data", "engine", "fileio", "images", "optimize", "ttmodel")
FG = "engine.objective_and_gradient"
_KEEP_RESULT = {"optimize.minimize", "fileio.load_sparse"}


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "cold", "result")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.cold = False
        self.result = None

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while installed; ``op`` tags spans with the current op id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self.last_fg_args = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._seen_obs = weakref.WeakSet()

    def _open(self, name: str) -> Span:
        sp = Span(name, self._stack[-1] if self._stack else None, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        sp.start = time.perf_counter()
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def _wrap(self, fn, name: str):
        tracer = self
        is_fg = name == FG
        keep = name in _KEEP_RESULT

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            sp = tracer._open(name)
            if is_fg:
                obs = args[1] if len(args) > 1 else kwargs["obs"]
                sp.cold = obs not in tracer._seen_obs
                tracer._seen_obs.add(obs)
                tracer.last_fg_args = (args[0] if args else kwargs["cores"], obs)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sp)
            if keep:
                sp.result = out
            return out

        return shim

    def install(self) -> None:
        modules = [importlib.import_module(f"ttcomplete.{name}") for name in LAYERS]
        shims = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    shims[obj] = self._wrap(obj, f"{short}.{attr}")
        namespaces = [m for n, m in sys.modules.items() if n == "ttcomplete" or n.startswith("ttcomplete.")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in shims:
                    setattr(mod, attr, shims[obj])
                    self._patched.append((mod, attr, obj))
        cls = importlib.import_module("ttcomplete.engine").SparseObservations
        post = cls.__post_init__
        cls.__post_init__ = self._wrap(post, "engine.SparseObservations")
        self._patched.append((cls, "__post_init__", post))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self.last_fg_args = None

    def self_seconds(self, start: int, stop: int) -> list[float]:
        """Duration minus child-covered time for ``self.spans[start:stop]``.

        The slice must hold whole span trees, as one traced pass does.
        """
        spans = self.spans[start:stop]
        child = [0.0] * len(spans)
        for sp in spans:
            if sp.parent is not None:
                child[sp.parent - start] += sp.seconds
        return [sp.seconds - c for sp, c in zip(spans, child)]

    def dump(self) -> list:
        return [[sp.name, sp.start, sp.end, sp.parent, sp.op] for sp in self.spans]
