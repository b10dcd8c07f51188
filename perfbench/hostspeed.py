"""Times at the reference host speed.

The benchmark runs on shared machines whose speed moves by up to a factor
of two within minutes, far more than the changes it must detect.  So every
timed step (a localization, a compile) is bracketed by a short fixed
pure-Python kernel that never touches the program, and the step's time is
scaled by how much slower than on the reference host the kernel ran just
before and after it::

    reported = measured * REFERENCE_KERNEL_SECONDS / kernel seconds

Set-up time is scaled by the median slowdown of the run's steps instead.

On the reference host (2 vCPUs, Python 3.11) the reported time equals the
measured one.  A change to the program moves the step, not the kernel, so
it moves the reported time by the same share as the measured one.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

#: Seconds :func:`kernel` takes on the reference host.
REFERENCE_KERNEL_SECONDS = 0.0014


def kernel() -> float:
    """Run the fixed calibration kernel once; returns its wall seconds.

    Dict and list traffic, integer arithmetic, calls and a sort with a
    Python key: the kind of work the localizer's Python layers do.
    """
    started = time.perf_counter()
    table: dict[int, int] = {}
    accumulator = 0
    for index in range(3000):
        table[(index * 31) % 977] = table.get(index % 977, 0) + (index ^ accumulator)
        accumulator = (accumulator + len(table)) & 0xFFFF
    sorted(range(3000), key=lambda value: (value * 7919) % 10007)
    return time.perf_counter() - started


@dataclass
class Step:
    """One timed step: measured seconds and seconds at reference speed."""

    measured: float = 0.0
    seconds: float = 0.0

    @property
    def slowdown(self) -> float:
        """How much slower than the reference host the step ran."""
        return self.measured / self.seconds if self.seconds else 1.0


@contextlib.contextmanager
def step():
    """Time the ``with`` body; the kernel runs before and after it."""
    before = kernel()
    timing = Step()
    started = time.perf_counter()
    try:
        yield timing
    finally:
        timing.measured = time.perf_counter() - started
        after = kernel()
        timing.seconds = timing.measured * REFERENCE_KERNEL_SECONDS / ((before + after) / 2)
