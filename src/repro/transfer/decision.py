"""The decision function H(J; θ) over chiller sequencing.

Implements the paper's example instantiation

    H(J; θ) = 1 − |D − D(θ)| / D

where ``D`` is the ideal decision performance (the minimum true power the
plant could draw) and ``D(θ)`` is the power realized when sequencing uses
the task models' COP predictions. Tasks that are absent from the model set
(never trained, dropped for leave-one-out importance, or not allocated)
fall back to the machine's nameplate COP estimate — the prediction an
operator would use without any data-driven model — so excluding a task
degrades exactly the decisions that task would have informed.

Every H here is read off an :class:`OperatingPointTable`: one building's
scenarios, their candidate subsets and true powers, and each operating
point's nameplate and predicted COPs. Scoring θ with some tasks absent
(leave-one-out importance, Shapley coalitions, allocation outcomes)
re-prices the table instead of re-predicting every point.
"""

from __future__ import annotations

from typing import Collection, Sequence

import numpy as np

from repro.building.chiller import Chiller
from repro.building.dataset import BuildingOperationDataset
from repro.building.sequencing import ScenarioTable
from repro.errors import DataError
from repro.transfer.task import TaskModelSet

#: Defaults used to complete a decision-time feature vector: the sequencer
#: knows (plr, temperature) but not yet the hydronic telemetry of the hour.
DEFAULT_HUMIDITY = 0.68
DEFAULT_CONDITION = 1.0
DEFAULT_DELTA_T = 5.5
WATER_SPECIFIC_HEAT = 4.186


def nameplate_cop(chiller: Chiller) -> float:
    """The no-model fallback COP estimate.

    Without a data-driven task, the operator only knows the catalog rating —
    not the machine's age degradation, unit bias, or part-load behaviour —
    so sequencing decisions made from this estimate are systematically off
    for old or off-design-operated machines. That error is what makes a
    dropped task *cost* something, i.e. what gives tasks their importance.
    """
    return chiller.model_type.rated_cop


def _clipped_prediction(predictions: np.ndarray) -> np.ndarray:
    return np.clip(predictions, 0.5, 12.0)


def _feature_rows(
    capacity_kw: float, plr, outdoor_temp, humidity: float, condition: float
) -> np.ndarray:
    """Decision-time feature rows matching TASK_FEATURE_COLUMNS.

    The sequencer knows (plr, temperature) but not yet the hydronic
    telemetry of the hour; ``plr``/``outdoor_temp`` may be arrays.
    """
    plr = np.atleast_1d(np.asarray(plr, dtype=float))
    rows = np.empty((plr.size, 6))
    rows[:, 0] = plr
    rows[:, 1] = outdoor_temp
    rows[:, 2] = humidity
    rows[:, 3] = condition
    rows[:, 4] = plr * capacity_kw / (WATER_SPECIFIC_HEAT * DEFAULT_DELTA_T)
    rows[:, 5] = DEFAULT_DELTA_T
    return rows


class OperatingPointTable:
    """H of one building over a scenario list, for θ with any tasks absent.

    Built once from the :class:`~repro.building.sequencing.ScenarioTable`
    of the scenarios plus, per operating point, its nameplate COP and the
    clipped predicted COP of every task covering it — one batched
    ``predict`` call per task. A task covers a point when it models the
    point's chiller and its PLR band holds the point's ``plr``; the first
    covering task in model-set order answers, as
    :meth:`TaskModelSet.lookup` does. Marking tasks absent only swaps the
    points they answered for to the next covering task, or to nameplate.
    """

    def __init__(
        self,
        chillers: Sequence[Chiller],
        scenarios: Sequence[tuple[float, float]],
        model_set: TaskModelSet,
        *,
        humidity: float = DEFAULT_HUMIDITY,
        condition: float = DEFAULT_CONDITION,
    ) -> None:
        self.scenarios = ScenarioTable(chillers, scenarios)
        points = self.scenarios.points
        machine = np.array([i for i, _, _ in points], dtype=np.intp)
        plr = np.array([p for _, p, _ in points])
        temp = np.array([t for _, _, t in points])
        self._nameplate = np.array([nameplate_cop(chillers[i]) for i in machine])
        #: (task id, covered point indices, COPs there), in lookup order.
        self._covers: list[tuple[int, np.ndarray, np.ndarray]] = []
        for i, chiller in enumerate(chillers):
            on_machine = np.flatnonzero(machine == i)
            tasks = model_set.tasks_for(chiller.building_id, chiller.chiller_id)
            for task in tasks:
                low, high = task.data.band
                covered = on_machine[(low <= plr[on_machine]) & (plr[on_machine] < high)]
                if covered.size == 0:
                    continue
                if task.is_fitted:
                    rows = _feature_rows(
                        chiller.capacity_kw, plr[covered], temp[covered], humidity, condition
                    )
                    cops = _clipped_prediction(task.predict(rows))
                else:
                    cops = self._nameplate[covered]
                self._covers.append((task.task_id, covered, cops))
        self._full = self.cops()

    def cops(self, absent: Collection[int] = ()) -> np.ndarray:
        """The believed COP of every point with the ``absent`` tasks dropped."""
        cops = self._nameplate.copy()
        for task_id, covered, values in reversed(self._covers):
            if task_id not in absent:
                cops[covered] = values
        return cops

    def score(self, absent: Collection[int] = ()) -> float:
        """H(J \\ absent; θ \\ θ_absent) over this building's scenarios."""
        return self.scenarios.score(self.cops(absent) if absent else self._full)


class MTLDecisionModel:
    """Scores trained task models by the decisions they induce.

    Parameters
    ----------
    dataset:
        The generated building dataset (provides plants and scenarios).
    model_set:
        The fitted θ to evaluate.
    humidity, condition:
        Decision-time context defaults; override with the day's sensed
        values when available.
    """

    def __init__(
        self,
        dataset: BuildingOperationDataset,
        model_set: TaskModelSet,
        *,
        humidity: float = DEFAULT_HUMIDITY,
        condition: float = DEFAULT_CONDITION,
    ) -> None:
        self.dataset = dataset
        self.model_set = model_set
        self.humidity = float(humidity)
        self.condition = float(condition)
        self._cache: dict[tuple[int, int, float, float], float] = {}

    # ------------------------------------------------------------------
    def predicted_cop(self, chiller: Chiller, plr: float, outdoor_temp: float) -> float:
        """COP prediction for one operating point (cached per exact point)."""
        key = (chiller.building_id, chiller.chiller_id, plr, outdoor_temp)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        task = self.model_set.lookup(chiller.building_id, chiller.chiller_id, plr)
        if task is None or not task.is_fitted:
            value = nameplate_cop(chiller)
        else:
            rows = _feature_rows(
                chiller.capacity_kw, plr, outdoor_temp, self.humidity, self.condition
            )
            value = float(_clipped_prediction(task.predict(rows))[0])
        self._cache[key] = value
        return value

    def cop_fn(self):
        """A CopFunction closure for :func:`repro.building.sequencing.sequence_chillers`."""
        return lambda chiller, plr, temp: self.predicted_cop(chiller, plr, temp)

    # ------------------------------------------------------------------
    def decision_table(
        self, building_id: int, scenarios: Sequence[tuple[float, float]]
    ) -> OperatingPointTable:
        """The operating-point table of one building over ``scenarios``."""
        if not 0 <= building_id < len(self.dataset.plants):
            raise DataError(f"building_id {building_id} out of range")
        return OperatingPointTable(
            self.dataset.plants[building_id].chillers,
            scenarios,
            self.model_set,
            humidity=self.humidity,
            condition=self.condition,
        )

    def day_tables(self, day: int) -> list[OperatingPointTable]:
        """One table per building, in building order, for decision epoch ``day``."""
        return [
            self.decision_table(building_id, self.dataset.scenarios_for_day(building_id, day))
            for building_id in range(len(self.dataset.plants))
        ]

    def building_performance(
        self, building_id: int, scenarios: Sequence[tuple[float, float]]
    ) -> float:
        """H restricted to one building's plant over the given scenarios."""
        return self.decision_table(building_id, scenarios).score()

    def overall_performance(self, day: int, *, absent: Collection[int] = ()) -> float:
        """H(J \\ absent; θ) across all buildings for decision epoch ``day``."""
        return tables_performance(self.day_tables(day), absent)

    def with_model_set(self, model_set: TaskModelSet) -> "MTLDecisionModel":
        """A sibling evaluator with a different θ (cache not shared)."""
        return MTLDecisionModel(
            self.dataset, model_set, humidity=self.humidity, condition=self.condition
        )


def tables_performance(
    tables: Sequence[OperatingPointTable], absent: Collection[int] = ()
) -> float:
    """H across buildings: the mean of the per-building table scores."""
    return float(np.mean([table.score(absent) for table in tables]))
