"""Reference kernel: fixed work timed beside the program under test.

On a shared 2-vCPU VM (2 GHz Xeon) each vCPU was seen to change speed by up
to 1.7x for seconds to minutes at a time, independently of the other.
Timing this kernel on the same CPU just before and after each measurement
tells how fast that CPU was then, so the gated metrics can be read against
it.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on an uncontended core of the 2 GHz Xeon host the
# baseline was measured on; setup_s is reported at this reference speed.
REFERENCE_S = 0.008


def reference_kernel() -> int:
    """Fixed work of the same kind as the solver's: a scalar float
    recursion in Python (like a Numerov sweep) and small numpy array
    arithmetic."""
    c = [1.0 + 1e-6 * i for i in range(30000)]
    y0, y1, sign_changes = 0.0, 1e-3, 0
    for i in range(1, len(c) - 1):
        y2 = (2.0 * c[i] * y1 - c[i - 1] * y0) / c[i + 1]
        sign_changes += (y2 < 0.0) != (y1 < 0.0)
        y0, y1 = y1, y2
    x = np.linspace(0.1, 10.0, 8000)
    for _ in range(20):
        x = np.sqrt(x * x + 1.0) - 0.5
    return sign_changes + int(x[0])


def timed_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def around(reference: list[float]) -> list[float]:
    """Reference time around each measurement, from the timings taken just
    before it and just after it (which is just before the next one)."""
    return [(a + b) / 2.0 for a, b in zip(reference, reference[1:])]
