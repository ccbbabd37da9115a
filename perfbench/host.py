"""Host-speed reference for the gated timings.

On a shared machine the speed of one CPU drifts with what its neighbours
run: the same serve drain, measured in 5-second windows of one process,
swung between 1100 and 2200 req/s within 90 seconds, and process and
thread CPU time swung with it (the slowdown is slower execution, not
stolen time). A fixed reference kernel, timed next to every timed block,
slows down with it. Over 15-second windows of a 3.5-minute recording, the
IQR/median of the windows' median block time was 0.065 for serve drains
and 0.145 for fleet runs; of block time over kernel time, 0.035 and 0.062.

So every host time behind an end-to-end metric is scaled by
``NOMINAL_S / reference time``, the reference being the mean of the kernel
runs just before and just after the block. The metric then reads in its own
unit (s, ms, 1/s) as it would on a host where the kernel takes
``NOMINAL_S``. The kernel belongs to the benchmark, so no change to the
package moves it; the raw reference time is reported as ``host.ref_ms``.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

#: Kernel time of the nominal host, in seconds.
NOMINAL_S = 0.010

_SMALL = np.random.default_rng(0).random((50, 10))


def _kernel() -> float:
    """The shape of the package's hot paths in miniature: many small-array
    numpy calls and Python object churn. Of the candidates tried (also an
    interpreted integer loop and 100k-element numpy passes) this pair
    tracked both the serve drains and the fleet runs most closely."""
    total = 0.0
    for _ in range(400):
        scaled = _SMALL * 1.5
        total += float(scaled.sum(axis=0)[0]) + int(np.argsort(scaled[:, 0])[0])
    table = {}
    for i in range(8000):
        table[(i, i % 11)] = [i, float(i)]
    return total + sorted(table.values(), key=lambda row: row[1])[0][0]


def reference_s() -> float:
    start = perf_counter()
    _kernel()
    return perf_counter() - start


class HostSpeed:
    """Converts the host time of consecutive blocks to nominal time."""

    def __init__(self) -> None:
        self.samples = [reference_s()]

    def scale(self) -> float:
        """Nominal seconds per host second over the block that just ended."""
        self.samples.append(reference_s())
        return 2.0 * NOMINAL_S / (self.samples[-2] + self.samples[-1])

    def ref_ms(self) -> float:
        return median(self.samples) * 1e3
