"""Order statistics for the benchmark's timings."""

from __future__ import annotations

from statistics import median

import numpy as np

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile of ``values``."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def tail(values, q_max: float) -> tuple[float, float, int]:
    """``(q, value, n)``: the highest percentile up to ``q_max`` that still
    has at least ten samples beyond it (p50 when none has)."""
    n = len(values)
    q = next(
        (q for q in TAIL_LADDER if q <= q_max and n * (1.0 - q / 100.0) >= 10.0),
        50.0,
    )
    return q, percentile(values, q), n


def med(values) -> float:
    return float(median(values))
