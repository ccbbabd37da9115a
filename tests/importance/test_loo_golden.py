"""Leave-one-out importance kernel: goldens and exactness against the oracle.

The digests were recorded from the scalar per-task evaluator, before the
operating-point table replaced it. The kernel must reproduce them, and
match the scalar oracle in ``loo_oracle.py`` bit for bit on every base
model, both MTL strategies, both clipping modes, unfitted tasks and
overlapping PLR bands.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.building.dataset import BuildingOperationConfig, BuildingOperationDataset
from repro.building.sequencing import decision_performance
from repro.core.dcta_system import DCTASystem, DCTASystemConfig
from repro.importance.importance import ImportanceEvaluator
from repro.importance.shapley import ShapleyImportanceEvaluator
from repro.transfer.decision import MTLDecisionModel
from repro.transfer.registry import make_strategy
from repro.transfer.task import LearningTask, TaskModelSet
from tests.importance import loo_oracle

HISTORY_DIGESTS = {
    0: "69bcf1510644ed0b6f53ca175131598e88e6d4fe3f2a192df91cba9db8eb5f60",
    1: "d2e4f459df387aa50ff4ea3ab3ad077a16669a31b9065860d3f89ad6d6a10005",
}
#: importance_for_day(28), the first eval day of the seed-0 system.
EVAL_DAY = 28
EVAL_DAY_DIGEST = "3eabbb4b66780c0e229cbad6b895cf425e3219e84319757bc9af123af8c7ca06"

BASE_MODELS = ("ridge", "svm", "mlp", "random_forest", "gradient_boosting", "adaboost")


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def systems():
    return {seed: DCTASystem(DCTASystemConfig(seed=seed)).build() for seed in HISTORY_DIGESTS}


@pytest.fixture(scope="module")
def oracle_dataset():
    config = BuildingOperationConfig(n_days=10, n_buildings=2, seed=4)
    return BuildingOperationDataset(config).generate()


class TestGoldens:
    @pytest.mark.parametrize("seed", sorted(HISTORY_DIGESTS))
    def test_importance_history_digest(self, systems, seed):
        history = systems[seed].importance_history
        assert history.shape == (28, 48)
        assert _digest(history) == HISTORY_DIGESTS[seed]

    def test_eval_day_digest(self, systems):
        system = systems[0]
        assert int(system.eval_days[0]) == EVAL_DAY
        assert _digest(system.evaluator.importance_for_day(EVAL_DAY)) == EVAL_DAY_DIGEST


def _assert_matches_oracle(dataset, model_set, days, *, clip_negative=True):
    evaluator = ImportanceEvaluator(dataset, model_set, clip_negative=clip_negative)
    for day in days:
        kernel = evaluator.importance_for_day(day)
        oracle = loo_oracle.importance_for_day(
            dataset, model_set, day, clip_negative=clip_negative
        )
        np.testing.assert_array_equal(kernel, oracle)


class TestKernelEqualsOracle:
    @pytest.mark.parametrize("strategy", ["clustered", "independent"])
    @pytest.mark.parametrize("base_model", BASE_MODELS)
    def test_base_models(self, oracle_dataset, strategy, base_model):
        model_set = make_strategy(strategy, base_model, seed=0).fit(oracle_dataset.tasks)
        _assert_matches_oracle(oracle_dataset, model_set, [3])

    @pytest.mark.parametrize("clip_negative", [True, False])
    def test_clip_modes(self, small_dataset, small_model_set, clip_negative):
        _assert_matches_oracle(
            small_dataset, small_model_set, [2, 7], clip_negative=clip_negative
        )

    def test_unfitted_tasks(self, small_dataset, small_model_set):
        tasks = list(small_model_set)
        model_set = TaskModelSet(
            [
                LearningTask(data=task.data, model=None if i % 3 == 0 else task.model)
                for i, task in enumerate(tasks)
            ]
        )
        _assert_matches_oracle(small_dataset, model_set, [5], clip_negative=False)

    def test_overlapping_bands_fall_through_to_next_task(
        self, small_dataset, small_model_set
    ):
        """A duplicate of each task answers for its points once it is dropped."""
        tasks = list(small_model_set)
        next_id = max(small_model_set.task_ids) + 1
        duplicates = [
            LearningTask(
                data=replace(task.data, task_id=next_id + i),
                model=tasks[(i + 1) % len(tasks)].model,
            )
            for i, task in enumerate(tasks[::2])
        ]
        model_set = TaskModelSet(tasks + duplicates)
        _assert_matches_oracle(small_dataset, model_set, [4], clip_negative=False)


class TestOneKernel:
    def test_decision_performance_equals_scalar_loop(self, small_dataset):
        chillers = small_dataset.plants[0].chillers
        scenarios = small_dataset.scenarios_for_day(0, 3) + [(1e9, 30.0)]
        noisy = lambda chiller, plr, temp: float(chiller.cop(plr, temp)) * (1.0 + 0.3 * plr)
        assert decision_performance(
            chillers, scenarios, cop_fn=noisy
        ) == loo_oracle.scalar_decision_performance(chillers, scenarios, noisy)

    def test_shapley_coalitions_equal_oracle(self, small_dataset, small_model_set):
        day = 6
        shapley = ShapleyImportanceEvaluator(small_dataset, small_model_set, seed=0)
        ids = small_model_set.task_ids
        for coalition in ([], ids[:1], ids[::3], ids[1:], ids):
            assert shapley._coalition_value(coalition, day, {}) == loo_oracle.coalition_value(
                small_dataset, small_model_set, coalition, day
            )

    def test_decision_quality_equals_oracle(self, systems):
        system = systems[0]
        day = int(system.eval_days[1])
        selected = system.model_set.task_ids[::2]
        assert system.decision_quality(day, selected) == loo_oracle.coalition_value(
            system.dataset, system.model_set, selected, day
        )


class TestPurity:
    def test_day_result_independent_of_earlier_days(self, small_dataset, small_model_set):
        days = [int(day) for day in small_dataset.days]
        fresh = {
            day: ImportanceEvaluator(small_dataset, small_model_set).importance_for_day(day)
            for day in days
        }
        used = ImportanceEvaluator(small_dataset, small_model_set)
        order = np.random.default_rng(3).permutation(days)
        for day in order:
            np.testing.assert_array_equal(used.importance_for_day(int(day)), fresh[int(day)])

    def test_prediction_cache_keys_exact_operating_point(
        self, small_dataset, small_model_set
    ):
        """Points that agree to 4 decimals of PLR still get their own prediction."""
        chiller = small_dataset.plants[0].chillers[0]
        task = small_model_set.lookup(chiller.building_id, chiller.chiller_id, 0.70001)
        assert task is not None and task.is_fitted
        warm = MTLDecisionModel(small_dataset, small_model_set)
        warm.predicted_cop(chiller, 0.70001, 28.001)
        fresh = MTLDecisionModel(small_dataset, small_model_set)
        assert warm.predicted_cop(chiller, 0.70004, 28.004) == fresh.predicted_cop(
            chiller, 0.70004, 28.004
        )
        assert warm.predicted_cop(chiller, 0.70004, 28.004) != warm.predicted_cop(
            chiller, 0.70001, 28.001
        )
