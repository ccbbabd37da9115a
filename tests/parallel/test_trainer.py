"""ParallelTrainer: ordering, determinism, telemetry merge, fallback.

Parallel-path tests pass ``force=True`` so they exercise real worker
processes even on single-core machines, where the pool's adaptive
fallback would otherwise (correctly) serialise them.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.parallel import ParallelTrainer, merge_worker_metrics, merge_worker_spans
from repro.parallel.trainer import _run_in_worker, mark_merged
from repro.rl.crl import AgentTrainTask, train_allocation_agent
from repro.rl.dqn import DQNConfig
from repro.tatim.generators import random_instance
from repro.telemetry import MetricsRegistry, RunTrace, use_registry, use_run_trace
from repro.utils.rng import as_rng, derive_seeds


@pytest.fixture(scope="module", autouse=True)
def _pool_cleanup():
    """Leave no worker processes or shared segments behind this module."""
    yield
    from repro.parallel import shutdown_worker_pool

    shutdown_worker_pool()


def square(payload):
    return payload * payload


def seeded_draw(seed):
    return float(as_rng(seed).random())


def raise_type_error(payload):
    raise TypeError(f"worker bug on payload {payload}")


def spin_metrics(payload):
    from repro.telemetry import get_registry, span

    with span("worker.step", payload=payload):
        get_registry().counter("repro_test_worker_total", help="test").inc(payload)
        get_registry().histogram(
            "repro_test_worker_seconds", buckets=(1.0, 10.0), help="test"
        ).observe(float(payload))
    return payload


def _counter_total(registry, name):
    for family in registry.families():
        if family.name == name:
            return float(sum(child.value for child in family.children.values()))
    return 0.0


def _train_task(seed: int) -> AgentTrainTask:
    geometry = random_instance(6, 2, seed=0)
    rng = np.random.default_rng(4)
    return AgentTrainTask(
        geometry=geometry,
        importance=np.abs(rng.normal(size=6)),
        dqn_config=DQNConfig(hidden_sizes=(16,)),
        episodes=10,
        seed=seed,
        seed_demonstrations=0,
        mode="offline",
    )


class TestMap:
    def test_invalid_jobs(self):
        with pytest.raises(ConfigurationError):
            ParallelTrainer(square, jobs=0)

    def test_empty_payloads(self):
        assert ParallelTrainer(square, jobs=2).map([]) == []

    def test_serial_matches_input_order(self):
        assert ParallelTrainer(square, jobs=1).map([3, 1, 2]) == [9, 1, 4]

    def test_parallel_matches_serial(self):
        payloads = list(range(6))
        serial = ParallelTrainer(square, jobs=1).map(payloads)
        parallel = ParallelTrainer(square, jobs=2, force=True).map(payloads)
        assert parallel == serial

    def test_adaptive_fallback_still_correct(self):
        # Without force, a tiny workload degrades to serial (spin-up
        # would dominate) — results must be unchanged.
        assert ParallelTrainer(square, jobs=2, estimated_cost_s=1e-6).map([3, 1]) == [9, 1]

    def test_seeded_payloads_deterministic_across_jobs(self):
        seeds = derive_seeds(0, 4)
        serial = ParallelTrainer(seeded_draw, jobs=1).map(seeds)
        parallel = ParallelTrainer(seeded_draw, jobs=2, force=True).map(seeds)
        assert parallel == serial

    def test_unpicklable_fn_falls_back_to_serial(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            trainer = ParallelTrainer(lambda p: p + 1, jobs=2, force=True)
            assert trainer.map([1, 2, 3]) == [2, 3, 4]
        assert _counter_total(registry, "repro_parallel_fallbacks_total") == 1

    def test_worker_exception_propagates_without_fallback(self):
        """A TypeError raised by the worker function is a bug, not a
        pickling failure: it must surface, not be re-run serially."""
        registry = MetricsRegistry()
        with use_registry(registry):
            trainer = ParallelTrainer(raise_type_error, jobs=2, force=True)
            with pytest.raises(TypeError, match="worker bug on payload"):
                trainer.map([1, 2, 3])
        assert _counter_total(registry, "repro_parallel_fallbacks_total") == 0

    def test_agent_training_identical_serial_vs_parallel(self):
        """The real CRL worker: same seeds, same greedy policy either way."""
        tasks = [_train_task(seed) for seed in derive_seeds(0, 2)]
        serial = ParallelTrainer(train_allocation_agent, jobs=1).map(tasks)
        parallel = ParallelTrainer(train_allocation_agent, jobs=2, force=True).map(tasks)
        problem = tasks[0].geometry.scaled(importance=np.asarray(tasks[0].importance))
        from repro.rl.env import AllocationEnv

        for a, b in zip(serial, parallel):
            assert np.array_equal(
                a.solve(AllocationEnv(problem)).matrix,
                b.solve(AllocationEnv(problem)).matrix,
            )

    def test_repeated_maps_reuse_pool(self):
        """Back-to-back maps must not spin up a fresh executor each time."""
        registry = MetricsRegistry()
        with use_registry(registry):
            trainer = ParallelTrainer(square, jobs=2, force=True)
            trainer.map([1, 2, 3])
            spinups_after_first = _counter_total(registry, "repro_pool_spinups_total")
            trainer.map([4, 5, 6])
            spinups_after_second = _counter_total(registry, "repro_pool_spinups_total")
        assert spinups_after_second == spinups_after_first


class TestTelemetryMerge:
    def test_run_in_worker_returns_plain_data(self):
        value, spans, metrics, token = _run_in_worker(spin_metrics, 3, "tok-1")
        assert value == 3
        assert token == "tok-1"
        assert isinstance(metrics, dict)
        assert all(isinstance(record, dict) for record in spans)

    def test_worker_metrics_merged_into_parent(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            ParallelTrainer(spin_metrics, jobs=2, force=True).map([2, 5])
        assert _counter_total(registry, "repro_test_worker_total") == 7
        assert _counter_total(registry, "repro_parallel_tasks_total") == 2
        for family in registry.families():
            if family.name == "repro_test_worker_seconds":
                child = next(iter(family.children.values()))
                assert child.count == 2
                assert child.sum == pytest.approx(7.0)
                break
        else:  # pragma: no cover
            pytest.fail("worker histogram not merged")

    def test_merge_idempotent_across_pool_reuse(self):
        """A long-lived pool must not double-count a task's telemetry.

        Counters merge exactly once per submission token, however many
        batches the same worker process ends up serving.
        """
        registry = MetricsRegistry()
        with use_registry(registry):
            trainer = ParallelTrainer(spin_metrics, jobs=2, force=True)
            trainer.map([2, 5])
            trainer.map([3, 4])
        # 2+5 from the first batch, 3+4 from the second: nothing doubled.
        assert _counter_total(registry, "repro_test_worker_total") == 14
        assert _counter_total(registry, "repro_parallel_tasks_total") == 4

    def test_mark_merged_latches_once_per_token(self):
        token = "test-latch-token-unique"
        assert mark_merged(token) is True
        assert mark_merged(token) is False
        assert mark_merged(None) is True  # untracked merges always proceed

    def test_worker_spans_grafted_under_parallel_worker(self):
        registry = MetricsRegistry()
        trace = RunTrace(label="parent")
        with use_registry(registry), use_run_trace(trace):
            ParallelTrainer(spin_metrics, jobs=2, force=True).map([1, 2])
        names = [record.name for record in trace.spans]
        assert names.count("parallel.worker") == 2
        workers = [r for r in trace.spans if r.name == "parallel.worker"]
        assert all(r.attrs.get("clock") == "worker" for r in workers)

    def test_merge_helpers_noop_without_sinks(self):
        # No ambient registry/trace: merging must not raise.
        merge_worker_metrics({"metrics": [{"name": "x", "kind": "counter", "value": 1}]})
        merge_worker_spans([{"name": "s", "start": 0.0, "end": 1.0}], worker=0)
