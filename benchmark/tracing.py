"""Spans around the public functions of the cdna modules, recorded from outside.

``Tracer.install`` replaces every public function of the layer modules with a
wrapper, in every cdna module namespace that binds it, so calls between
modules are timed too (``evaluate_code`` calling ``mld_decode``, say).  Each
call records one span: name, start, end and parent span.  Spans are kept in
flat arrays and turned into per-name call counts, inclusive times and self
times (duration minus the time covered by child spans) once per round.

Most of a wrapper's own cost falls outside the span it records, in its
caller's span; a little falls inside.  ``Tracer.calibrate`` measures both
parts on an empty function.  The tag hooks and cache checks of a few wrappers
cost more, and each such call times that work after the call.  ``drain`` takes
these costs off the spans they fall in, so self and inclusive times show the
program's work rather than the tracer's.
"""
from __future__ import annotations

import inspect
import types
from array import array
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Callable, Optional

#: modules whose public functions are traced; their names prefix the spans.
LAYERS = ("model", "coverage", "simulate", "codes", "binary")


@dataclass
class RoundProfile:
    """Per-name totals of one traced round, plus the hook tags of its spans."""

    calls: dict = field(default_factory=dict)
    inclusive: dict = field(default_factory=dict)
    self_time: dict = field(default_factory=dict)
    #: name -> list of (inclusive seconds, parent name, tag) for hooked names
    tagged: dict = field(default_factory=dict)
    #: name -> calls answered from the function's own lru_cache
    cache_hits: dict = field(default_factory=dict)

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def self_s(self, name: str) -> float:
        return self.self_time.get(name, 0.0)


class Tracer:
    """Records spans for the wrapped functions; one instance per process."""

    def __init__(self, hooks: Optional[dict] = None):
        #: span name -> hook(arguments, result) whose value is kept as the span's tag
        self._hooks = hooks or {}
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._reset()
        self._restore: list[tuple[types.ModuleType, str, object]] = []
        #: seconds a wrapped call adds outside its own span, in its caller's
        self.outer_cost_s = 0.0
        #: seconds a wrapped call adds inside its own span, over a plain call
        self.inner_cost_s = 0.0

    def _reset(self) -> None:
        self._name_of = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._tags: dict[int, object] = {}
        #: span index -> seconds of hook and cache bookkeeping after the span ended
        self._extra: dict[int, float] = {}
        self._hits: dict[str, int] = {}

    def install(self, package: types.ModuleType) -> None:
        """Wrap the public functions of ``package``'s layer modules everywhere they are bound."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in vars(module).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        name_id = self._name_ids[name]
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook else None
        cache_info = getattr(fn, "cache_info", None)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer._start)
            tracer._name_of.append(name_id)
            tracer._parent.append(stack[-1] if stack else -1)
            tracer._start.append(0.0)
            tracer._end.append(0.0)
            stack.append(index)
            misses = cache_info().misses if cache_info else 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._start[index] = start
                tracer._end[index] = end
            if cache_info or hook:
                if cache_info and cache_info().misses == misses:
                    tracer._hits[name] = tracer._hits.get(name, 0) + 1
                elif hook:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    tracer._tags[index] = hook(bound.arguments, result)
                tracer._extra[index] = perf_counter() - end
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        if cache_info:
            wrapper.cache_info = cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def calibrate(self, calls: int = 2000, batches: int = 7) -> None:
        """Measure ``outer_cost_s`` and ``inner_cost_s`` on an empty function, between rounds."""

        def empty():
            pass

        wrapped = self._wrap("trace.calibration", empty)
        outer, inner = [], []
        for _ in range(batches):
            self._reset()
            start = perf_counter()
            for _ in range(calls):
                wrapped()
            traced = perf_counter() - start
            spans = sum(e - s for s, e in zip(self._start, self._end))
            start = perf_counter()
            for _ in range(calls):
                empty()
            plain = perf_counter() - start
            outer.append((traced - spans) / calls)
            inner.append((spans - plain) / calls)
        self._reset()
        self.outer_cost_s = median(outer)
        self.inner_cost_s = median(inner)

    def drain(self) -> RoundProfile:
        """Aggregate and forget the spans recorded since the last drain."""
        names = self._names
        name_of, parent = self._name_of, self._parent
        count = len(self._start)
        # The tracer's cost in a span: its own inner cost, plus the whole cost
        # of every wrapped call below it.  A span starts after its parent, so
        # its children follow it in the arrays.
        below = [0.0] * count
        wrapper_cost = self.outer_cost_s + self.inner_cost_s
        for i in range(count - 1, -1, -1):
            if parent[i] >= 0:
                below[parent[i]] += below[i] + wrapper_cost + self._extra.get(i, 0.0)
        durations = [e - s - self.inner_cost_s - b for s, e, b in zip(self._start, self._end, below)]
        covered = [0.0] * count
        for i, p in enumerate(parent):
            if p >= 0:
                covered[p] += durations[i]
        profile = RoundProfile(cache_hits=dict(self._hits))
        for i, dur in enumerate(durations):
            name = names[name_of[i]]
            profile.calls[name] = profile.calls.get(name, 0) + 1
            profile.inclusive[name] = profile.inclusive.get(name, 0.0) + dur
            profile.self_time[name] = profile.self_time.get(name, 0.0) + dur - covered[i]
        for i, tag in self._tags.items():
            name = names[name_of[i]]
            p = parent[i]
            parent_name = names[name_of[p]] if p >= 0 else None
            profile.tagged.setdefault(name, []).append((durations[i], parent_name, tag))
        self._reset()
        return profile
