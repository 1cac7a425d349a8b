"""Tracer that wraps drsim's public functions from outside the program.

Entering a `Tracer` replaces module attributes (``drsim.sim.run_round``,
``drsim.radio.tx_energy``, ...), the methods in `METHODS` and the entries of
module-level dispatch dicts with wrappers; leaving it puts back the very
objects it replaced. A function bound under several names (``sim.locate``
and ``geometry.locate``) is wrapped at each binding and traced under the
name of the module that defines it.

Two modes:

* timed: every wrapper counts calls and measures duration and self time
  (duration minus the part covered by traced children). Functions in `HOT`
  are left unwrapped, so their cost stays in their callers' self time
  instead of inflating it with wrapper overhead. Spans (name, start, end,
  parent) are kept in memory for every traced call except those in
  `AGGREGATED`, which are called many times per round and only add to the
  per-name totals.
* counting: every wrapper, `HOT` included, only counts calls. Counts are
  exact and repeat from run to run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("config", "geometry", "protocols", "radio", "sim", "cli")
METHODS = ("geometry.Point.distance_to", "geometry.Rect.contains",
           "geometry.FieldPartition.region", "sim.SimState.alive_count")
HOT = frozenset({"geometry.Point.distance_to", "geometry.Rect.contains",
                 "geometry.FieldPartition.region", "geometry.cr_neighbor_ncrs",
                 "geometry.inward_adjacent_ncr", "sim.SimState.alive_count"})
AGGREGATED = frozenset({"radio.tx_energy", "radio.rx_energy", "radio.agg_energy",
                        "geometry.locate"})


def _is_drsim_function(obj) -> bool:
    return inspect.isfunction(obj) and obj.__module__.startswith("drsim.")


def _trace_name(fn) -> str:
    return f"{fn.__module__.removeprefix('drsim.')}.{fn.__qualname__}"


def targets() -> list[tuple[object, str, object]]:
    """(owner, key, original) for every binding the tracer wraps. An owner
    is a module or class (attribute) or a dict (item)."""
    found = []
    for short in MODULES:
        module = importlib.import_module(f"drsim.{short}")
        for name, obj in vars(module).items():
            if _is_drsim_function(obj) and not name.startswith("_"):
                found.append((module, name, obj))
            elif (isinstance(obj, dict) and obj
                  and all(_is_drsim_function(v) for v in obj.values())):
                found.extend((obj, key, fn) for key, fn in obj.items())
    for path in METHODS:
        short, cls_name, name = path.split(".")
        cls = getattr(importlib.import_module(f"drsim.{short}"), cls_name)
        found.append((cls, name, vars(cls)[name]))
    return found


def _bind(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Context manager that traces drsim calls while it is entered."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.stats: dict[str, list] = {}    # name -> [calls, total_s, child_s]
        self.spans: list = []               # (name, start, end, parent index)
        self._frames: list[list] = []       # [child_s, span index] per open call
        self._patched: list = []

    def __enter__(self):
        try:
            for owner, key, original in targets():
                name = _trace_name(original)
                if self.timed and name in HOT:
                    continue
                stats = self.stats.setdefault(name, [0, 0.0, 0.0])
                if self.timed:
                    wrapper = self._timer(original, name)
                else:
                    wrapper = self._counter(original, stats)
                _bind(owner, key, wrapper)
                self._patched.append((owner, key, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patched:
            _bind(*self._patched.pop())

    @staticmethod
    def _counter(fn, stats):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timer(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def call(self, name, fn, *args, **kwargs):
        """Run fn as a traced call named `name`. The benchmark also uses it
        for its own work inside drsim calls, which then counts as a child,
        not as self time of the caller."""
        stats = self.stats.get(name) or self.stats.setdefault(name, [0, 0.0, 0.0])
        frames = self._frames
        parent = frames[-1][1] if frames else -1
        span = -1
        if name not in AGGREGATED:
            span = len(self.spans)
            self.spans.append(None)
        frame = [0.0, span if span >= 0 else parent]
        frames.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            frames.pop()
            duration = end - start
            stats[0] += 1
            stats[1] += duration
            stats[2] += frame[0]
            if frames:
                frames[-1][0] += duration
            if span >= 0:
                self.spans[span] = (name, start, end, parent)

    def counts(self) -> dict[str, int]:
        return {name: s[0] for name, s in self.stats.items()}

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_time(self, name: str) -> float:
        s = self.stats.get(name, [0, 0.0, 0.0])
        return s[1] - s[2]
