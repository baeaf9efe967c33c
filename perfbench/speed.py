"""Machine-speed calibration: scale timings to a nominal machine speed.

On a shared 2-vCPU virtual machine the speed one process gets swings by
20% and more, for minutes at a time, which is wider than the bounds the
benchmark must resolve.  A fixed interpreter loop that does not use the
program, timed in between the benchmark's own work, measures that speed.
The closed-loop workloads multiply their durations by ``factor()`` and
divide their throughput by it, so a run in a slow phase reports what the
nominal machine would have shown.  The loop and ``NOMINAL_SECONDS`` never change, so the
scale is the same for a parent commit and a change.
"""

from __future__ import annotations

import statistics
import time

#: Mean time of one calibration loop on the machine the bounds were set on
#: (2 vCPUs, Intel Xeon at 2.1 GHz, CPython 3.11.7), in its faster phases.
NOMINAL_SECONDS = 0.015

_TABLE = {i: (i * 31) % 977 for i in range(4096)}


def calibration_loop() -> int:
    """Dictionary lookups and integer arithmetic, the interpreter's staple work.

    It allocates nothing, so garbage collection does not add to its noise.
    """
    table = _TABLE
    total = 0
    for i in range(120000):
        total += table[(i * 7919) & 4095]
        if total > 1 << 40:
            total = 0
    return total


class SpeedProbe:
    """Samples of the calibration loop taken during one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> None:
        """Time ``count`` loops."""
        for _ in range(count):
            start = time.perf_counter()
            calibration_loop()
            self.samples.append(time.perf_counter() - start)

    @property
    def seconds(self) -> float:
        """Total time spent in calibration loops so far."""
        return sum(self.samples)

    def factor(self) -> float:
        """Nominal over measured loop time: below 1 when the machine ran slow."""
        return NOMINAL_SECONDS / statistics.mean(self.samples)
