import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DataError, NotFittedError
from repro.transfer.task import LearningTask, TaskModelSet


def _stub_task(task_id, building=0, chiller=0, band=(0.1, 0.5), band_index=0):
    from repro.building.dataset import TaskData

    return TaskData(
        task_id=task_id,
        building_id=building,
        chiller_id=chiller,
        band_index=band_index,
        band=band,
        X=np.ones((3, 2)),
        y=np.ones(3),
        descriptor=np.zeros(4),
    )


class _ConstantModel:
    def __init__(self, value):
        self.value = value

    def predict(self, X):
        return np.full(len(X), self.value)


class TestLearningTask:
    def test_unfitted_predict_raises(self):
        task = LearningTask(data=_stub_task(0))
        assert not task.is_fitted
        with pytest.raises(NotFittedError):
            task.predict(np.ones((1, 2)))

    def test_fitted_predict(self):
        task = LearningTask(data=_stub_task(0), model=_ConstantModel(5.0))
        assert np.allclose(task.predict(np.ones((2, 2))), 5.0)


class TestTaskModelSet:
    def _make_set(self):
        tasks = [
            LearningTask(_stub_task(0, chiller=0, band=(0.1, 0.5), band_index=0), _ConstantModel(1.0)),
            LearningTask(_stub_task(1, chiller=0, band=(0.5, 1.0), band_index=1), _ConstantModel(2.0)),
            LearningTask(_stub_task(2, chiller=1, band=(0.1, 0.5), band_index=0), _ConstantModel(3.0)),
        ]
        return TaskModelSet(tasks)

    def test_len_and_ids(self):
        model_set = self._make_set()
        assert len(model_set) == 3
        assert model_set.task_ids == [0, 1, 2]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            TaskModelSet([LearningTask(_stub_task(0)), LearningTask(_stub_task(0))])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            TaskModelSet([])

    def test_without_removes_one(self):
        reduced = self._make_set().without(1)
        assert 1 not in reduced
        assert len(reduced) == 2

    def test_without_missing_raises(self):
        with pytest.raises(DataError):
            self._make_set().without(99)

    def test_without_last_task_rejected(self):
        single = TaskModelSet([LearningTask(_stub_task(0))])
        with pytest.raises(DataError):
            single.without(0)

    def test_restricted_to(self):
        reduced = self._make_set().restricted_to([0, 2])
        assert reduced.task_ids == [0, 2]

    def test_restricted_to_empty_rejected(self):
        with pytest.raises(DataError):
            self._make_set().restricted_to([99])

    def test_lookup_by_band(self):
        model_set = self._make_set()
        assert model_set.lookup(0, 0, 0.3).task_id == 0
        assert model_set.lookup(0, 0, 0.7).task_id == 1
        assert model_set.lookup(0, 1, 0.3).task_id == 2
        assert model_set.lookup(0, 1, 0.7) is None
        assert model_set.lookup(5, 0, 0.3) is None


def _scan_lookup(tasks, building_id, chiller_id, plr):
    """The linear scan the machine index replaced: first match in insertion order."""
    for task in tasks:
        data = task.data
        if (
            data.building_id == building_id
            and data.chiller_id == chiller_id
            and data.band[0] <= plr < data.band[1]
        ):
            return task
    return None


_EDGES = (0.0, 0.2, 0.35, 0.5, 0.65, 0.8, 1.0, 1.000001)
_band = st.tuples(st.sampled_from(_EDGES), st.sampled_from(_EDGES))
_machine = st.tuples(st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=150, deadline=None)
@given(
    specs=st.lists(st.tuples(_machine, _band), min_size=1, max_size=12),
    queries=st.lists(
        st.tuples(_machine, st.one_of(st.sampled_from(_EDGES), st.floats(-0.1, 1.1))),
        min_size=1,
        max_size=20,
    ),
)
def test_indexed_lookup_equals_linear_scan(specs, queries):
    """Same first match in insertion order, with PLRs drawn on band edges."""
    tasks = [
        LearningTask(_stub_task(i, building=b, chiller=c, band=band), _ConstantModel(float(i)))
        for i, ((b, c), band) in enumerate(specs)
    ]
    model_set = TaskModelSet(tasks)
    for (building_id, chiller_id), plr in queries:
        assert model_set.lookup(building_id, chiller_id, plr) is _scan_lookup(
            tasks, building_id, chiller_id, plr
        )
