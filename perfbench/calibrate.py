"""The box's speed at a moment, from a fixed stretch of pure-Python work.

The reference box is shared: other tenants slow its cores down by up to
about 1.8x, in phases of ten seconds to minutes, and a whole run can fall
in one slow phase. The benchmark therefore times ``calibrate()`` between the
program's operations (outside their timed spans) and divides each
operation's time by the ``slowdown`` of the samples around it. ``calibrate``
runs only the interpreter and the standard library (integer arithmetic, a
dict, ``fractions.Fraction``), so no change to the program can move it, and
a program that gets faster reads faster by the same share.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The median time of calibrate() on the reference box (2-CPU Xeon, 2.1 GHz,
# Python 3.11.7) in a calm phase, when no other tenant slows it down. A time
# divided by slowdown() therefore reads in seconds of that calm box.
CALM_S = 0.0017


def calibrate() -> float:
    """Seconds taken by a fixed mix of integer, container and Fraction work."""
    t0 = time.perf_counter()
    s, seen = 0, {}
    for i in range(6000):
        s += i * i % 7
        seen[i & 255] = s
    x = Fraction(1, 3)
    for i in range(1, 300):
        x = x * Fraction(i + 1, i) - Fraction(1, i + 2)
    return time.perf_counter() - t0


def slowdown(samples: list[float]) -> float:
    """How many times slower than calm the box ran while ``samples`` were taken."""
    return statistics.median(samples) / CALM_S
