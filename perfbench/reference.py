"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark's host is a small share of a shared machine whose speed
wanders by a factor of up to 1.7 over tens of seconds (other tenants on the
same cores and caches), and process CPU time wanders with it, so neither
wall nor CPU time of an op repeats from run to run.  The benchmark therefore
runs this kernel between ops and reports op times scaled to a machine on
which one pass of the kernel takes ``REF_S`` seconds:

    scaled = measured * REF_S / (duration of the adjacent kernel passes)

The kernel mixes what magswim's hot paths do: scalar trigonometry and float
arithmetic in Python loops, a small numpy matrix filled element by element,
a 5x5 ``numpy.linalg.solve`` and small reductions.  It does not touch
magswim, so a change to the package moves the scaled times and leaves the
kernel alone.  What the scaling cannot separate from a program change is a
change that slows the kernel itself, such as a thread the package leaves
running between calls.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

# the nominal duration of one pass; the unit of every scaled time
REF_S = 0.005
# the work in one pass, sized to take about REF_S on a quiet 2 GHz core
STEPS = 200


def reference_pass() -> float:
    """One pass of the kernel; returns a checksum so nothing is skipped."""
    acc = 0.0
    eye = np.eye(5) * 10.0
    for k in range(STEPS):
        th = 0.013 * k
        c1, s1 = math.cos(th), math.sin(th)
        c2, s2 = math.cos(0.5 * th + 0.3), math.sin(0.5 * th + 0.3)
        m = np.empty((5, 5))
        for j in range(5):
            fx = fy = 0.0
            for i in range(3):
                a = (i + 1) * c1 * c1 + (j + 2) * s2 * s2
                b = (c1 - s2) * (c2 + s1) * (i - j)
                fx -= a * 0.7 + b * 0.3
                fy += a * b * 0.1 + (c2 * s1) ** 2
            m[0, j] = fx
            m[1, j] = fy
            m[2, j] = fx * fy
            m[3, j] = fx - fy
            m[4, j] = fx + 2.0 * fy
        v = np.linalg.solve(m + eye, np.array([1.0, c1, s1, c2, s2]))
        acc += float(np.max(np.abs(v))) + float(v @ v)
    return acc


def timed_pass() -> float:
    """Wall time of one pass."""
    t0 = time.perf_counter()
    reference_pass()
    return time.perf_counter() - t0


def pace(passes: int = 3) -> float:
    """Median wall time of a few passes: the machine's current pace."""
    return statistics.median(timed_pass() for _ in range(passes))
