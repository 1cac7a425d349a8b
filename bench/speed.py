"""Host-speed reference for normalising host times.

On a shared host, speed can drift by up to 2x in phases lasting from
seconds to minutes, as other tenants load the shared cores. A fixed piece of work,
timed right before and after each timed part of the workload, measures how
fast the host ran at that moment. The benchmark divides each part's host
time by that speed relative to `NOMINAL_S`, so its metrics read as host
seconds at a fixed reference speed, and the drift largely cancels.

Every time here, like every end-to-end time of the benchmark, is the CPU
time of the process (`time.process_time`). It leaves out the stretches in
which the hypervisor runs other tenants on this VM's vCPUs, which elapsed
time counts; what the reference then tracks is the slowdown of shared cores
and caches.

The reference work is shaped like the simulator's interpreted Python, which
is most of its time: attribute access on small objects, `math.hypot`, `min`
and `sorted` with key functions, and dict updates. It allocates no large
arrays, so it does not raise the benchmark's peak memory. A sample is the time of `PASSES` passes with the
garbage collector paused, so that a collection of the workload's objects
does not count as a slow host. The work lives
here, not in drsim, so that no change to drsim can change it.

Set-up time is mostly a fresh interpreter loading modules and numpy's
extension libraries, which the interpreted work above does not track. Its
reference is a fresh interpreter importing numpy and a fixed set of
standard-library modules (`import_sample`), timed right before and after
each set-up sample and scaled to `NOMINAL_IMPORT_S`. Neither changes with
drsim.
"""

from __future__ import annotations

import gc
import math
import subprocess
import sys
import time

# About the seconds one `sample()` took in the quickest phases seen on an
# Intel Xeon host with 2 vCPUs and Python 3.11. Any fixed value works: it
# only sets the scale of the normalised times, and must never change, so
# that results stay comparable across commits.
NOMINAL_S = 0.024
PASSES = 3
# The same for one `import_sample()`; it too must never change.
NOMINAL_IMPORT_S = 0.28
IMPORT_TIMEOUT_S = 60

IMPORT_CHILD = """\
import time
start = time.process_time()
import numpy
import argparse, asyncio, csv, dataclasses, decimal, email.parser, fractions
import http.client, json, logging, pathlib, statistics, tarfile, typing
import unittest, xml.etree.ElementTree, zipfile
print(time.process_time() - start)
"""


class _Node:
    __slots__ = ("x", "y", "energy")

    def __init__(self, x: float, y: float):
        self.x, self.y, self.energy = x, y, 0.5


_NODES = [_Node(float(i * 37 % 101), float(i * 53 % 103)) for i in range(120)]
_HEADS = _NODES[::20]


def _work():
    spent: dict[int, float] = {}
    for _ in range(24):
        for node in _NODES:
            head = min(_HEADS, key=lambda h: (math.hypot(node.x - h.x, node.y - h.y), h.x))
            spent[id(head)] = spent.get(id(head), 0.0) + 1e-9 * (node.x - head.x) ** 2
        ranked = sorted(_NODES, key=lambda n: (math.hypot(n.x - 50.0, n.y - 50.0), n.y))
    return spent, ranked


def sample() -> float:
    """Host CPU seconds for the reference work, now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        for _ in range(PASSES):
            _work()
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


def import_sample() -> float:
    """Host CPU seconds for a fresh interpreter to import the reference
    modules, now."""
    done = subprocess.run([sys.executable, "-c", IMPORT_CHILD], capture_output=True,
                          text=True, check=True, timeout=IMPORT_TIMEOUT_S)
    return float(done.stdout)


def normalise(seconds: float, reference_s: float, nominal_s: float = NOMINAL_S) -> float:
    """`seconds` at the reference speed, given a reference sample time and
    that sample's nominal time."""
    return seconds * nominal_s / reference_s
