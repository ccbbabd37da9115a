"""Chiller sequencing — the decision function D(·) and its quality H.

The paper instantiates the decision function on chiller-plant operation:
given a cooling load, the operator must decide *which* chillers to run
(the sequencing decision); running chillers split the load at equal part-
load ratio. The decision quality is

    H = 1 − |D − D(θ)| / D

where ``D`` is the ideal power draw (sequencing with the machines' true
COPs — :func:`ideal_power`) and ``D(θ)`` is the power actually drawn when
the subset is chosen from the task models' COP *predictions* but the
physics bills the *true* COPs. Accurate predictions recover the ideal
subset exactly (H = 1); the nameplate fallback of dropped tasks picks the
wrong machines on exactly the days those machines matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from repro.building.chiller import Chiller
from repro.errors import DataError

#: A COP predictor: (chiller, plr, outdoor_temp) -> predicted COP.
CopFunction = Callable[[Chiller, float, float], float]

#: Minimum sustainable part-load ratio; running below it surges the
#: compressor, so a lightly-loaded subset idles at this floor (wasting
#: cooling) rather than below it.
MIN_PLR = 0.2


@dataclass(frozen=True)
class SequencingDecision:
    """Outcome of one sequencing decision.

    Attributes
    ----------
    chiller_ids:
        ``chiller_id`` of every machine switched on.
    plr:
        Common part-load ratio the running machines settle at.
    predicted_power_kw:
        Power the decision maker *expected* (under its COP estimates).
    """

    chiller_ids: tuple[int, ...]
    plr: float
    predicted_power_kw: float


def _true_cop(chiller: Chiller, plr: float, outdoor_temp: float) -> float:
    return float(chiller.cop(plr, outdoor_temp))


def _check_inputs(chillers: Sequence[Chiller], load_kw: float) -> None:
    if not chillers:
        raise DataError("sequencing needs at least one chiller")
    if load_kw <= 0.0:
        raise DataError(f"cooling load must be positive, got {load_kw}")


def evaluate_power(
    chillers: Sequence[Chiller],
    load_kw: float,
    outdoor_temp: float,
    *,
    cop_fn: CopFunction | None = None,
    min_plr: float = MIN_PLR,
) -> float:
    """Power (kW) drawn when exactly ``chillers`` run and split ``load_kw``.

    Load splits at equal part-load ratio, clipped to ``[min_plr, 1]``:
    below the floor the machines idle at ``min_plr`` (over-cooling is paid
    for), above 1 the subset saturates. ``cop_fn`` defaults to the true
    COP physics; pass a model-backed predictor to price a *belief*.
    """
    _check_inputs(chillers, load_kw)
    cop = cop_fn if cop_fn is not None else _true_cop
    total_capacity = sum(chiller.capacity_kw for chiller in chillers)
    plr = min(max(load_kw / total_capacity, min_plr), 1.0)
    return float(
        sum(plr * c.capacity_kw / cop(c, plr, outdoor_temp) for c in chillers)
    )


def _candidate_subsets(
    chillers: Sequence[Chiller], load_kw: float, min_plr: float
) -> list[tuple[tuple[int, ...], float]]:
    """(member indices, plr) for every subset able to serve the load."""
    capacities = [chiller.capacity_kw for chiller in chillers]
    candidates: list[tuple[tuple[int, ...], float]] = []
    indices = range(len(chillers))
    for size in range(1, len(chillers) + 1):
        for members in combinations(indices, size):
            total = sum(capacities[i] for i in members)
            if load_kw <= total:
                candidates.append((members, max(load_kw / total, min_plr)))
    if not candidates:
        # Load exceeds the whole plant: run everything flat out.
        candidates.append((tuple(indices), 1.0))
    return candidates


def sequence_chillers(
    chillers: Sequence[Chiller],
    load_kw: float,
    outdoor_temp: float,
    *,
    cop_fn: CopFunction | None = None,
    min_plr: float = MIN_PLR,
) -> SequencingDecision:
    """D(·): choose the chiller subset minimizing *predicted* power.

    With the default (true-COP) ``cop_fn`` this is the ideal operator;
    with a model-backed ``cop_fn`` it is the operator the task set θ
    induces, whose mistakes :func:`decision_performance` prices.
    """
    _check_inputs(chillers, load_kw)
    cop = cop_fn if cop_fn is not None else _true_cop
    best: tuple[float, tuple[int, ...], float] | None = None
    for members, plr in _candidate_subsets(chillers, load_kw, min_plr):
        power = sum(
            plr * chillers[i].capacity_kw / cop(chillers[i], plr, outdoor_temp)
            for i in members
        )
        if best is None or power < best[0]:
            best = (power, members, plr)
    power, members, plr = best
    return SequencingDecision(
        chiller_ids=tuple(chillers[i].chiller_id for i in members),
        plr=float(plr),
        predicted_power_kw=float(power),
    )


def ideal_power(
    chillers: Sequence[Chiller],
    load_kw: float,
    outdoor_temp: float,
    *,
    min_plr: float = MIN_PLR,
) -> float:
    """D: the minimum true power any subset could serve the load with."""
    _check_inputs(chillers, load_kw)
    return min(
        sum(
            plr * chillers[i].capacity_kw / _true_cop(chillers[i], plr, outdoor_temp)
            for i in members
        )
        for members, plr in _candidate_subsets(chillers, load_kw, min_plr)
    )


class ScenarioTable:
    """The θ-independent half of H over one plant and a list of scenarios.

    Holds, per ``(load_kw, outdoor_temp)`` scenario, the candidate subsets
    (:func:`_candidate_subsets`) and each subset's true power; and, per
    distinct operating point ``(chiller, plr, outdoor_temp)`` a subset
    runs a machine at, its load share ``plr * capacity_kw``.
    :meth:`score` then prices any vector of believed COPs over those
    points, so a caller that asks for H under many beliefs (leave-one-out
    and Shapley importance) builds the table once and re-prices only COPs.

    The score is bitwise the scalar loop's: each subset's power is summed
    over its members in member order, left to right, and the chosen subset
    is the first one with the lowest predicted power.

    Attributes
    ----------
    points:
        ``(chiller index, plr, outdoor_temp)`` of every operating point;
        :meth:`score` takes one COP per point, in this order.
    """

    def __init__(
        self,
        chillers: Sequence[Chiller],
        scenarios: Sequence[tuple[float, float]],
        *,
        min_plr: float = MIN_PLR,
    ) -> None:
        if not scenarios:
            raise DataError("decision_performance needs at least one scenario")
        index: dict[tuple[int, float, float], int] = {}
        self.points: list[tuple[int, float, float]] = []
        shares: list[float] = []
        true_cops: list[float] = []
        grid: list[list[list[int]]] = []
        for load_kw, outdoor_temp in scenarios:
            _check_inputs(chillers, load_kw)
            subsets = []
            for members, plr in _candidate_subsets(chillers, load_kw, min_plr):
                row = []
                for i in members:
                    key = (i, plr, outdoor_temp)
                    if key not in index:
                        index[key] = len(self.points)
                        self.points.append(key)
                        shares.append(plr * chillers[i].capacity_kw)
                        true_cops.append(_true_cop(chillers[i], plr, outdoor_temp))
                    row.append(index[key])
                subsets.append(row)
            grid.append(subsets)
        # Padded (scenario, subset, member) layout. Padding members point
        # at an extra point with share 0 and COP 1, so they add exactly
        # 0.0; padding subsets carry +inf power, so they are never chosen.
        pad = len(self.points)
        width = max(len(subsets) for subsets in grid)
        depth = max(len(row) for subsets in grid for row in subsets)
        self._members = np.full((len(grid), width, depth), pad, dtype=np.intp)
        self._missing = np.full((len(grid), width), np.inf)
        for s, subsets in enumerate(grid):
            self._missing[s, : len(subsets)] = 0.0
            for c, row in enumerate(subsets):
                self._members[s, c, : len(row)] = row
        self._member_shares = np.append(shares, 0.0)[self._members]
        self._true_power = self._power(np.asarray(true_cops))
        self._best_true = self._true_power.min(axis=1)

    def _power(self, cops: np.ndarray) -> np.ndarray:
        """(scenario, subset) power under ``cops``; +inf for padding."""
        terms = self._member_shares / np.append(cops, 1.0)[self._members]
        power = terms[:, :, 0] + self._missing
        for k in range(1, terms.shape[2]):
            power += terms[:, :, k]
        return power

    def score(self, cops: np.ndarray) -> float:
        """H when subsets are chosen under ``cops`` (one per point)."""
        chosen = self._power(cops).argmin(axis=1)
        chosen_true = self._true_power[np.arange(chosen.size), chosen]
        best_true = self._best_true
        scores = np.maximum(1.0 - np.abs(chosen_true - best_true) / best_true, 0.0)
        return float(np.mean(scores))


def decision_performance(
    chillers: Sequence[Chiller],
    scenarios: Sequence[tuple[float, float]],
    *,
    cop_fn: CopFunction | None = None,
    min_plr: float = MIN_PLR,
) -> float:
    """H = 1 − |D − D(θ)| / D, averaged over ``(load_kw, temp)`` scenarios.

    For each scenario the subset is chosen under ``cop_fn`` (the belief θ)
    but billed at the true COPs; the score compares that realized power to
    the ideal-operator power and clips to ``[0, 1]``. A ``cop_fn`` that
    reproduces the true COPs scores exactly 1. ``cop_fn`` is called once
    per distinct operating point.
    """
    table = ScenarioTable(chillers, scenarios, min_plr=min_plr)
    cop = cop_fn if cop_fn is not None else _true_cop
    return table.score(
        np.array([cop(chillers[i], plr, temp) for i, plr, temp in table.points], dtype=float)
    )
