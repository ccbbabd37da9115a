"""Scalar reference for leave-one-out importance (Definition 1).

The shipped evaluator reads every score off one operating-point table per
building-day. This oracle is the straightforward form it replaced: for
each task j a fresh :class:`MTLDecisionModel` over ``J \\ {j}``, COPs
predicted one operating point at a time, and H summed by the scalar loop
over scenarios, candidate subsets and members. The kernel must match it
bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.building.sequencing import MIN_PLR, _candidate_subsets, _true_cop
from repro.transfer.decision import MTLDecisionModel


def scalar_decision_performance(chillers, scenarios, cop_fn, min_plr=MIN_PLR) -> float:
    """H = 1 − |D − D(θ)| / D by the per-scenario, per-subset loop."""
    scores = []
    for load_kw, outdoor_temp in scenarios:
        best_true = None
        chosen_true = None
        chosen_predicted = None
        for members, plr in _candidate_subsets(chillers, load_kw, min_plr):
            true_power = 0.0
            predicted_power = 0.0
            for i in members:
                chiller = chillers[i]
                share = plr * chiller.capacity_kw
                true_power += share / _true_cop(chiller, plr, outdoor_temp)
                predicted_power += share / cop_fn(chiller, plr, outdoor_temp)
            if best_true is None or true_power < best_true:
                best_true = true_power
            if chosen_predicted is None or predicted_power < chosen_predicted:
                chosen_predicted = predicted_power
                chosen_true = true_power
        scores.append(max(0.0, 1.0 - abs(chosen_true - best_true) / best_true))
    return float(np.mean(scores))


def building_score(model: MTLDecisionModel, building_id: int, scenarios) -> float:
    """H of one building under ``model``'s θ, by the scalar loop."""
    chillers = model.dataset.plants[building_id].chillers
    return scalar_decision_performance(chillers, scenarios, model.cop_fn())


def coalition_value(dataset, model_set, task_ids, day: int) -> float:
    """H with only ``task_ids`` present (empty = all-nameplate sequencing)."""
    from repro.transfer.task import LearningTask, TaskModelSet

    if task_ids:
        present = model_set.restricted_to(task_ids)
    else:
        present = TaskModelSet([LearningTask(data=t.data, model=None) for t in model_set])
    model = MTLDecisionModel(dataset, present)
    scores = [
        building_score(model, building, dataset.scenarios_for_day(building, day))
        for building in range(len(dataset.plants))
    ]
    return float(np.mean(scores))


def importance_for_day(dataset, model_set, day: int, *, clip_negative: bool = True) -> np.ndarray:
    """I_j for every task id in ``model_set.task_ids`` on ``day``."""
    full = MTLDecisionModel(dataset, model_set)
    full_scores = np.asarray(
        [
            building_score(full, building, dataset.scenarios_for_day(building, day))
            for building in range(len(dataset.plants))
        ]
    )
    n_buildings = full_scores.size
    importances = np.zeros(len(model_set))
    for position, task_id in enumerate(model_set.task_ids):
        building = model_set.get(task_id).data.building_id
        reduced = full.with_model_set(model_set.without(task_id))
        reduced_score = building_score(reduced, building, dataset.scenarios_for_day(building, day))
        delta = (full_scores[building] - reduced_score) / n_buildings
        importances[position] = max(delta, 0.0) if clip_negative else delta
    return importances
