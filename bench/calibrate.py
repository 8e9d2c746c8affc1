"""Host-speed calibration: a fixed pure-Python pass timed next to the jobs.

A shared host changes speed by up to half again for tens of seconds at a
time (neighbours' load, frequency scaling), in CPU time as much as in wall
time.  Every timing metric is therefore reported at a reference host speed:
a measured time ``t`` is scaled by ``REF_PASS_S / pass_s``, where ``pass_s``
is the time of one calibration pass taken around the measurement.  A change
in the program moves the scaled time as it moves the raw one; a change in
the host's speed moves both the raw time and ``pass_s`` and cancels out.

The pass does the kind of work the library does, in the same interpreter:
``Fraction`` arithmetic, tuple-keyed dicts and sets, sorting and integer
products.  It uses nothing from ``bnsr``, so no change to the library can
change it.  Its working set is small, so that it adds little to the
worker's peak memory.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# time of one pass at the reference speed: the slower of the two speeds of
# the 2-core host the bounds were set on (Python 3.11.7)
REF_PASS_S = 0.012


def _pass() -> int:
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i % 7 - 3, i) * Fraction(i + 1, 3)
    table: dict = {}
    for i in range(10000):
        key = (i % 37, (i * 7) % 53, i & 3)
        table[key] = table.get(key, 0) + i
    seen = {(a, b) for (a, b, _c) in table}
    rows = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    prod = 1
    for k, v in rows[:800]:
        prod = (prod * (v + 1)) % 1000003
    return prod + len(seen) + acc.numerator % 7


def sample(passes: int = 1) -> list[float]:
    """Time ``passes`` calibration passes, one sample each."""
    out = []
    for _ in range(passes):
        t0 = perf_counter()
        _pass()
        out.append(perf_counter() - t0)
    return out


def scale(samples) -> float:
    """Factor taking times measured beside ``samples`` to the reference speed."""
    return REF_PASS_S / statistics.median(samples)
