"""Spans and counters recorded around the program's public functions.

The tracer is installed by replacing module and class attributes of the
``safemon`` package with wrappers; nothing under ``src/`` changes. Spans
are kept in memory as (name, start, end, parent) rows. A span's self
time is its duration minus the part of its interval covered by its
direct children.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(self.clock())
        self.end.append(math.nan)
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def inside(self, names) -> bool:
        """Whether any open span carries one of `names`."""
        ids = {self._name_ids.get(n) for n in names}
        return any(self.name[i] in ids for i in self._stack)

    def by_name(self) -> dict[str, dict[str, list[float]]]:
        """Durations and self times of every closed span, grouped by name."""
        own = self_times(self.start, self.end, self.parent)
        out: dict[str, dict[str, list[float]]] = {}
        for i, name_id in enumerate(self.name):
            if math.isnan(self.end[i]):
                continue
            entry = out.setdefault(self.names[name_id], {"total": [], "self": []})
            entry["total"].append(self.end[i] - self.start[i])
            entry["self"].append(own[i])
        return out


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread, so the children of a span are disjoint
    intervals inside it and their durations add up to the time they cover.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, as numpy's default method."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(values, q: float) -> int:
    """How many samples lie strictly above the q-th percentile."""
    cut = percentile(values, q)
    return sum(v > cut for v in values)


def min_samples(q: float, tail: int = 10) -> int:
    """Fewest samples that put `tail` of them beyond the q-th percentile."""
    return math.ceil(tail * 100.0 / (100.0 - q) - 1e-9)


def wrap(tracer: Tracer, name: str, fn, after=None):
    """`fn` inside a span; `after(result, args, kwargs)` may add counters."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            after(result, args, kwargs)
        return result

    return traced


def counted(tracer: Tracer, name: str, fn):
    """`fn` with a call counter and no span, for calls too frequent to time."""

    @functools.wraps(fn)
    def inner(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return inner


def replace_function(package: str, original, replacement) -> int:
    """Point every module attribute of `package` bound to `original` at
    `replacement` (modules import functions by name). Returns the count."""
    hits = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits
