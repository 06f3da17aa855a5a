"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of the program at the module attribute
their caller looks up (``meanerr.simulate.draw_replicate``,
``meanerr.cli.render_table``, ...), so the program itself is not changed.
Each call records a span (name, start, end, parent span) appended to flat
arrays; the spans of one operation descend from its root ``cli.main`` span.
Nothing is written while spans are being recorded; ``summary`` turns the
arrays into per-name totals once the run is over. A layer's self time is its span's duration minus the time its direct
child spans cover. The benchmark calls the program from one thread, so one
stack of open spans is enough.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Callable, Optional

import numpy as np


class _Delegate:
    """Stands in for a module: the given attributes, the rest delegated."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.counts: dict[str, float] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable[[object], float]] = None) -> Callable:
        """``fn`` recording a span named ``name`` per call.

        ``count``, if given, maps the result to a number added to
        ``counts[name]`` (rows loaded, say).
        """
        name_id = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            index = len(self._start)
            self._name.append(name_id)
            self._parent.append(stack[-1] if stack else -1)
            self._end.append(0.0)
            stack.append(index)
            self._start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[index] = clock()
                stack.pop()
            if count is not None:
                self.counts[name] = self.counts.get(name, 0) + count(result)
            return result

        return traced

    def _patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self, package: str,
                targets: list[tuple[str, object, Optional[Callable]]]) -> None:
        """Wrap each target object wherever a module of ``package`` binds it.

        A class is not replaced in the module that defines it, so its own
        classmethods and isinstance checks there keep working. A target
        that is missing (None) records no spans and reports 0 calls.
        """
        modules = [module for name, module in sorted(sys.modules.items())
                   if name.startswith(package + ".") and module is not None]
        for name, obj, count in targets:
            self._name_id(name)
            if obj is None:
                continue
            wrapped = self.wrap(name, obj, count)
            for module in modules:
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is obj:
                        self._patch(module, attr, wrapped)

    def install_numpy_random(self, module, name: str,
                             constructors: tuple[str, ...]) -> None:
        """Trace ``np.random.<constructor>`` calls made by ``module``.

        Replaces the module's ``np`` global with a stand-in whose
        ``random`` attribute carries the wrapped constructors; numpy itself
        is not touched.
        """
        self._name_id(name)
        if getattr(module, "np", None) is not np:
            return
        wrapped = {attr: self.wrap(name, getattr(np.random, attr))
                   for attr in constructors}
        self._patch(module, "np",
                    _Delegate(np, random=_Delegate(np.random, **wrapped)))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, counts."""
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        parent = np.frombuffer(self._parent, dtype=np.intc)
        name = np.frombuffer(self._name, dtype=np.intc)
        duration = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested],
                               minlength=start.size)
        own = duration - children
        width = len(self.names)
        calls = np.bincount(name, minlength=width)
        total = np.bincount(name, weights=duration, minlength=width)
        self_s = np.bincount(name, weights=own, minlength=width)
        return {
            label: {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(self_s[i]),
                    "count": float(self.counts.get(label, 0))}
            for i, label in enumerate(self.names)
        }
