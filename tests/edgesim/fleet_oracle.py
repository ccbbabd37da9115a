"""Scalar references for the fleet engine's vectorized cohort kernels.

The fleet engine routes a whole cohort in one pass (``_pick_nodes``,
``_segmented_fifo``). These are the per-segment versions of the same
rules: one FIFO resource at a time, one region's round-robin pick at a
time. The kernel tests pin the vectorized path to them bitwise.
"""

from __future__ import annotations

import numpy as np


def fifo_ends(ready: np.ndarray, durations: np.ndarray, busy0: float) -> np.ndarray:
    """Completion times of one FIFO resource serving jobs in array order.

    Solves ``end_i = max(ready_i, end_{i-1}) + d_i`` (with ``end_0``
    seeded by ``busy0``) without a Python loop: with ``s = cumsum(d)``,
    ``end_i = s_i + max_{j<=i} max(busy0, ready_j - s_{j-1})``.
    """
    s = np.cumsum(durations)
    return s + np.maximum.accumulate(np.maximum(ready - (s - durations), busy0))


def pick_nodes(
    members: np.ndarray, pointer: int, alive: np.ndarray, k: int
) -> tuple[np.ndarray, int]:
    """Round-robin ``k`` alive ``members`` of one region from ``pointer``.

    Returns ``(chosen, next_pointer)``; ``chosen`` is all ``-1`` when the
    whole region is down.
    """
    m = len(members)
    chosen = members[(pointer + np.arange(k)) % m]
    next_pointer = (pointer + k) % m
    dead = np.flatnonzero(~alive[chosen])
    if len(dead):
        alive_members = members[alive[members]]
        if len(alive_members) == 0:
            return np.full(k, -1, dtype=np.int64), next_pointer
        chosen = chosen.copy()
        chosen[dead] = alive_members[(pointer + dead) % len(alive_members)]
    return chosen, next_pointer
