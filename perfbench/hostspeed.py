"""A fixed reference kernel that tracks the host's speed next to each compare.

The benchmark's host is shared: its speed drifts by tens of percent over
a minute, and a run's wall times move with it.  A fixed piece of work that
does not depend on the program — integer hashing into dicts and sets, and
small numpy array passes, like the program's own hot loops — is timed
between consecutive compares.  Dividing a compare's wall time by the
kernel's, and multiplying by the kernel's wall time at a fixed reference
speed, gives the compare's time at that reference speed.  The kernel never
changes with the program, so a faster program still reads faster; a
slower minute of the host no longer does.  The host's speed also differs
from one process to the next, so the kernel is timed in the process whose
work it scales: the service-burst's daemon times it itself (``serve.py``).
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: Wall time of one :func:`kernel_seconds` call at the reference speed (a
#: typical minute of the 2-core host the benchmark was defined on).
REFERENCE_S = 0.15

_MASK = (1 << 64) - 1


def _hash_pass() -> int:
    buckets: dict = {}
    for value in range(40_000):
        mixed = (value * 0x9E3779B97F4A7C15) & _MASK
        mixed = ((mixed ^ (mixed >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        mixed = ((mixed ^ (mixed >> 27)) * 0x94D049BB133111EB) & _MASK
        buckets.setdefault(mixed & 4095, set()).add(value)
    return len(sorted(buckets.items()))


def _array_pass() -> float:
    rng = np.random.default_rng(0)
    matrix = rng.random((30, 30))
    vector = rng.random(30)
    for _ in range(6_000):
        vector = np.abs(matrix @ vector - vector.sum()) / (1.0 + np.max(vector))
        vector = vector[np.argsort(vector)] + np.cumsum(vector) * 1e-3
    return float(vector.sum())


def kernel_seconds() -> float:
    """Run the reference kernel once; its wall time in seconds.

    The cyclic garbage collector is off while it runs: a collection walks
    every live object of the process, which would make the kernel's time
    depend on what the benchmark happens to hold, not on the host.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        _hash_pass()
        _array_pass()
        return time.perf_counter() - start
    finally:
        gc.enable()


def speed_factor(kernel_before_s: float, kernel_after_s: float) -> float:
    """Multiplier from raw seconds to seconds at the reference speed, for an
    operation timed between two kernel runs."""
    return REFERENCE_S * 2.0 / (kernel_before_s + kernel_after_s)
