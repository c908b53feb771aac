"""Host-speed correction for benchmark timings.

On a shared host the vCPUs run 20-40% slower for seconds to minutes at a
time, whatever the program does, which swamps the differences a benchmark is
meant to show.  A fixed pure-Python kernel is timed just before and just
after every op (and around set-up); an op's wall time is scaled by
``KERNEL_REF_S`` over the mean kernel time, so timings read as seconds of a
host that runs the kernel in ``KERNEL_REF_S``: the kernel's 5th-percentile
time on a quiet 2-vCPU x86 host with CPython 3.11.  The kernel does not touch
the package under test, so a slower program still shows in full.
"""

import math
import time

KERNEL_LOOPS = 20000
KERNEL_REF_S = 1.05e-3


def kernel_s():
    """Best of three timings of the calibration kernel."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(KERNEL_LOOPS):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def corrected(wall, kernel_before, kernel_after):
    """Wall time on the reference host, from the kernel times around it."""
    return wall * 2 * KERNEL_REF_S / (kernel_before + kernel_after)
