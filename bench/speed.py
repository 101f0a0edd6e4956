"""The machine's speed, sampled between ops, so that timings can be scaled to
one reference speed.

The benchmark runs on shared machines whose speed drifts by a quarter or more
within a minute and by up to twice over an hour, in CPU time as much as in
wall time: other tenants' work competes for the same cores and caches.  Every
timed op is therefore bracketed by samples of a fixed piece of pure-Python
work that does not touch llts, and its time is scaled by how much faster or
slower that work ran around it than on the reference machine.  A change to
llts moves the scaled times exactly as it moves the raw ones; drift of the
machine moves the op and the samples together and cancels.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# Seconds one unit took on the reference machine, a shared 2-core Linux
# machine with Python 3.11.7, when the scaling was introduced.  Any constant
# would do: it only fixes the scale the end-to-end times are reported on.
REFERENCE_S = 0.0035

_KEYS = 10_000
_REPEATS = 7


def _unit() -> int:
    """Tuples as dict keys, small lists, a pass over the dict: the kind of
    work the package's interned terms and graphs do."""
    table = {}
    for i in range(_KEYS):
        table[(i, i & 7)] = [i]
    total = 0
    for value in table.values():
        total += value[0]
    return total


def sample() -> float:
    """Seconds one unit takes now: the median of a few, with the collector off
    so that the heap earlier ops left behind does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(_REPEATS):
            start = perf_counter()
            _unit()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between the samples ``before`` and ``after``, at
    the reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
