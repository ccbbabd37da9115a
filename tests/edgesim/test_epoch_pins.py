"""Golden pins of the epoch engine's ``SimResult``s on every caller path.

Each pin is a SHA-256 over the bitwise content of a sequence of results
(``processing_time.hex()``, ``tasks_executed``,
``importance_achieved.hex()``, ``gate_crossed`` and the sorted completion
times), recorded from the per-event reference loop. The paths covered:
``DCTASystem.run_epoch`` (the pipeline), a ``PTExperiment`` sweep (Figs.
9-11), and direct runs with ``failures=`` and with ``failures=`` plus
``dependencies=``. A digest change is a behaviour change, never noise.

CRL and DCTA plans fold *measured* controller wall time into PT as the
plan's ``allocation_time``; the pins replace the allocators' clock with a
deterministic one so that term is reproducible too.
"""

from __future__ import annotations

import hashlib
import itertools
import types

import numpy as np
import pytest

import repro.allocation.classical
import repro.allocation.crl_policy
import repro.allocation.dcta
from repro.allocation.dependencies import TaskDependencyGraph, dependency_aware_plan
from repro.core.dcta_system import DCTASystem, DCTASystemConfig
from repro.core.experiment import PTExperiment
from repro.core.scenario import ScenarioConfig, SyntheticScenario
from repro.edgesim.simulator import EdgeSimulator, ExecutionPlan
from repro.edgesim.testbed import paper_testbed
from repro.edgesim.workload import WorkloadGenerator


def result_digest(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        digest.update(
            repr(
                (
                    result.processing_time.hex(),
                    result.tasks_executed,
                    result.importance_achieved.hex(),
                    result.gate_crossed,
                    sorted((t, at.hex()) for t, at in result.completion_times.items()),
                )
            ).encode()
        )
    return digest.hexdigest()


@pytest.fixture
def fixed_clock(monkeypatch):
    """Allocators read a clock that advances 1 ms per call."""
    ticks = itertools.count()
    clock = types.SimpleNamespace(perf_counter=lambda: next(ticks) * 1e-3)
    for module in (repro.allocation.classical, repro.allocation.crl_policy, repro.allocation.dcta):
        monkeypatch.setattr(module, "time", clock)


def _importance_plan(tasks, n_nodes):
    ordered = sorted(tasks, key=lambda t: t.true_importance, reverse=True)
    return ExecutionPlan(
        assignments=tuple((task.task_id, i % n_nodes) for i, task in enumerate(ordered))
    )


def test_pipeline_epochs_pin(fixed_clock):
    system = DCTASystem(DCTASystemConfig(seed=1)).build()
    results = []
    for day in system.eval_days:
        outcome = system.run_epoch(int(day))
        results += [outcome[name] for name in sorted(outcome)]
    assert len(results) == 48
    assert result_digest(results) == PIPELINE_DIGEST


def test_pt_sweep_pin(fixed_clock):
    scenario = SyntheticScenario(
        ScenarioConfig(n_tasks=8, n_regimes=2, n_history=6, n_eval=2, seed=7)
    )
    sweep = PTExperiment(scenario, crl_episodes=8, seed=7).sweep_bandwidth(
        (10, 40), n_processors=3
    )
    means = [(name, [t.hex() for t in sweep.times[name]]) for name in sorted(sweep.times)]
    assert hashlib.sha256(repr(means).encode()).hexdigest() == SWEEP_DIGEST


def test_failures_pin():
    nodes, network = paper_testbed()
    tasks = WorkloadGenerator(n_tasks=30, seed=9).draw()
    plan = _importance_plan(tasks, len(nodes))
    result = EdgeSimulator(nodes, network).run(tasks, plan, failures={0: 5.0, 3: 20.0})
    assert result.processing_time == 375.0069362979074
    assert result.tasks_executed == 8
    assert result_digest([result]) == FAILURES_DIGEST


def test_failures_with_dependencies_pin():
    nodes, network = paper_testbed()
    tasks = WorkloadGenerator(n_tasks=24, seed=4).draw()
    graph = TaskDependencyGraph(
        [t.task_id for t in tasks], [(0, 1), (1, 2), (3, 4), (5, 9), (9, 12)]
    )
    scores = np.array([t.true_importance for t in tasks])
    plan = dependency_aware_plan(tasks, nodes, scores, graph, time_limit_s=1e9)
    victim = plan.assignments[0][1]
    simulator = EdgeSimulator(nodes, network, quality_threshold=1.0)
    result = simulator.run(tasks, plan, failures={victim: 30.0}, dependencies=graph)
    assert result.gate_crossed
    order = sorted(result.completion_times, key=result.completion_times.get)
    assert graph.violations(order) == []
    assert result_digest([result]) == FAILURES_DEPENDENCIES_DIGEST


PIPELINE_DIGEST = "9db3e81373ed4bae4efbd06a75d50c55dcaeb3061aedd0ebf4e6ee3c0b50b9f6"
SWEEP_DIGEST = "defa8904c4d872db8a3e1b2ab45038d4c499f3b319969e898e67e1478d37b72a"
FAILURES_DIGEST = "c683aa3ef92193d04a80b680962df4f4c0c69b2a94c3e4e18e0081513c229fb5"
FAILURES_DEPENDENCIES_DIGEST = (
    "d11c7d73476ace1c13d6c5c5e2e25c7f467e6bb3ec345b0077c1969a5ab350cc"
)
