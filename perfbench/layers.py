"""The layer map: which public entry points the traced pass wraps, and how
their records become per-layer metrics.

Layers are the package's modules. A metric ending ``_s`` is busy time in
host seconds unless it ends ``self_s`` (busy time minus wrapped calls made
inside it); a plain count is calls or work units.
"""

from __future__ import annotations

from perfbench.tracer import LayerTracer, Target


def _one(args, result) -> int:
    return 1


def _cohort_events(args, result) -> int:
    return 0 if result is None else len(result[1])


def _batch_len(args, result) -> int:
    return len(args[1])


def _hit(args, result) -> int:
    return result is not None


def _episodes(args, result) -> int:
    return len(result)


TARGETS = (
    # core
    Target("core.build", "repro.core.dcta_system:DCTASystem.build"),
    Target("core.epoch", "repro.core.dcta_system:DCTASystem.run_epoch"),
    # building / transfer / importance
    Target("building.generate", "repro.building.dataset:BuildingOperationDataset.generate"),
    Target("transfer.fit", "repro.transfer.strategies:IndependentMTL.fit"),
    Target("transfer.fit", "repro.transfer.strategies:SelfAdaptedMTL.fit"),
    Target("transfer.fit", "repro.transfer.strategies:FineTunedMTL.fit"),
    Target("transfer.fit", "repro.transfer.strategies:ClusteredMTL.fit"),
    Target(
        "transfer.decision",
        "repro.transfer.decision:MTLDecisionModel.building_performance",
        _one,
    ),
    Target(
        "importance.matrix",
        "repro.importance.importance:ImportanceEvaluator.importance_matrix",
    ),
    Target(
        "importance.day",
        "repro.importance.importance:ImportanceEvaluator.importance_for_day",
        _one,
    ),
    # rl / ml
    Target("rl.fit", "repro.rl.crl:CRLModel.fit"),
    Target("rl.train", "repro.rl.stacked:LockstepTrainer.train"),
    Target("rl.env_step", "repro.rl.env:AllocationEnv.step"),
    Target("rl.env_step", "repro.rl.env:BatchedAllocationEnv.step"),
    Target("rl.replay_sample", "repro.rl.replay:ReplayBuffer.sample_batch_into"),
    Target("ml.forward", "repro.ml.neural:MLP.forward"),
    Target("ml.forward", "repro.ml.neural:MLP.forward_rows"),
    Target("ml.forward", "repro.ml.neural:StackedNetworks.forward"),
    Target("ml.forward", "repro.ml.neural:StackedNetworks.forward_rows"),
    Target("rl.allocate", "repro.rl.crl:CRLModel.allocate"),
    Target("rl.allocate", "repro.rl.crl:CRLModel.allocate_batch"),
    Target("rl.knn", "repro.rl.crl:EnvironmentStore.knn_importance"),
    Target("rl.rollout", "repro.rl.dqn:DQNAgent.solve", _one),
    Target("rl.rollout", "repro.rl.dqn:DQNAgent.solve_greedy_batch", _episodes),
    # allocation
    Target("allocation.plan.RM", "repro.allocation.random_mapping:RandomMapping.plan"),
    Target("allocation.plan.DML", "repro.allocation.dml:DMLAllocator.plan"),
    Target("allocation.plan.CRL", "repro.allocation.crl_policy:CRLAllocator.plan"),
    Target("allocation.plan.DCTA", "repro.allocation.dcta:DCTAAllocator.plan"),
    Target("allocation.local_fit", "repro.allocation.local:LocalProcess.fit"),
    # tatim
    Target("tatim.solve", "repro.tatim.greedy:density_greedy", _one),
    Target("tatim.solve", "repro.tatim.greedy:importance_greedy", _one),
    Target("tatim.solve", "repro.tatim.greedy:best_fit_greedy", _one),
    Target("tatim.solve", "repro.tatim.exact:branch_and_bound", _one),
    Target("tatim.scaled", "repro.tatim.problem:TATIMProblem.scaled"),
    Target("tatim.cache.get", "repro.tatim.cache:AllocationCache.get", _hit),
    Target("tatim.cache.put", "repro.tatim.cache:AllocationCache.put"),
    # parallel
    Target("parallel.map", "repro.parallel.trainer:ParallelTrainer.map"),
    # serve
    Target("serve.samplers.trace", "repro.serve.samplers:generate_trace"),
    Target("serve.samplers.gap_chunk", "repro.serve.samplers:PoissonSampler.gap_chunk"),
    Target(
        "serve.samplers.gap_chunk",
        "repro.serve.samplers:GaussianPoissonSampler.gap_chunk",
    ),
    Target("serve.dispatch", "repro.serve.dispatcher:Dispatcher.replay"),
    Target("serve.dispatch", "repro.serve.dispatcher:Dispatcher.run"),
    Target("serve.dispatch", "repro.serve.dispatcher:Dispatcher.serve"),
    Target("serve.kpi", "repro.serve.kpis:KPITracker.record_ok"),
    # edgesim
    Target("edgesim.epoch.run", "repro.edgesim.simulator:EdgeSimulator.run"),
    Target("edgesim.fleet.build", "repro.edgesim.fleet:FleetSimulator.build"),
    Target("edgesim.fleet.run", "repro.edgesim.fleet:FleetSimulator.run_fleet"),
    Target("edgesim.events.pop", "repro.edgesim.events:CalendarQueue.pop_cohort", _cohort_events),
    Target("edgesim.events.schedule", "repro.edgesim.events:CalendarQueue.schedule", _one),
    Target(
        "edgesim.events.schedule",
        "repro.edgesim.events:CalendarQueue.schedule_batch",
        _batch_len,
    ),
    Target("edgesim.workload.draw_chunk", "repro.edgesim.workload:FleetWorkload.draw_chunk"),
    # telemetry
    Target("telemetry.tick", "repro.telemetry.timeseries:TimeSeriesAggregator.maybe_tick"),
    Target("telemetry.observe", "repro.telemetry.instruments:Histogram.observe_batch"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: LayerTracer) -> dict[str, float]:
    """Busy, self and count metrics of the traced pass, by metric name."""
    s = tracer.stats
    pops = s["edgesim.events.pop"]
    gets = s["tatim.cache.get"]
    maps = s["parallel.map"]
    metrics = {
        "building.generate_s": s["building.generate"].busy_s,
        "transfer.fit_s": s["transfer.fit"].busy_s,
        "transfer.decision_s": s["transfer.decision"].busy_s,
        "transfer.decisions": s["transfer.decision"].units,
        "importance.matrix_s": s["importance.matrix"].busy_s,
        "importance.day_s": s["importance.day"].busy_s,
        "importance.days": s["importance.day"].units,
        "rl.fit_s": s["rl.fit"].busy_s,
        "rl.train_s": s["rl.train"].busy_s,
        "rl.env_step_s": s["rl.env_step"].busy_s,
        "rl.replay_sample_s": s["rl.replay_sample"].busy_s,
        "ml.forward_s": s["ml.forward"].busy_s,
        "rl.allocate_s": s["rl.allocate"].busy_s,
        "rl.knn_s": s["rl.knn"].busy_s,
        "rl.rollouts": s["rl.rollout"].units,
        "allocation.local_fit_s": s["allocation.local_fit"].busy_s,
        "core.build_self_s": s["core.build"].self_s,
        "core.epoch_self_s": s["core.epoch"].self_s,
        "tatim.solve_s": s["tatim.solve"].busy_s,
        "tatim.solves": s["tatim.solve"].units,
        "tatim.scaled_s": s["tatim.scaled"].busy_s,
        "tatim.cache.get_s": gets.busy_s,
        "tatim.cache.gets": gets.calls,
        "tatim.cache.hit_ratio": _ratio(gets.units, gets.calls),
        "tatim.cache.put_s": s["tatim.cache.put"].busy_s,
        "tatim.cache.puts": s["tatim.cache.put"].calls,
        "parallel.map_s": maps.busy_s,
        "parallel.maps": maps.calls,
        "parallel.map_overhead_s": maps.busy_s
        - tracer.edges[("parallel.map", "tatim.solve")],
        "serve.samplers.trace_s": s["serve.samplers.trace"].busy_s,
        "serve.samplers.gap_chunk_s": s["serve.samplers.gap_chunk"].busy_s,
        "serve.self_s": s["serve.dispatch"].self_s,
        "serve.kpi_s": s["serve.kpi"].busy_s,
        "edgesim.epoch.run_s": s["edgesim.epoch.run"].busy_s,
        "edgesim.fleet.build_s": s["edgesim.fleet.build"].busy_s,
        "edgesim.fleet.run_s": s["edgesim.fleet.run"].busy_s,
        "edgesim.fleet.self_s": s["edgesim.fleet.run"].self_s,
        "edgesim.events.pop_s": pops.busy_s,
        "edgesim.events.pops": pops.calls,
        "edgesim.events.cohort_width": _ratio(pops.units, pops.calls),
        "edgesim.events.schedule_s": s["edgesim.events.schedule"].busy_s,
        "edgesim.events.schedules": s["edgesim.events.schedule"].units,
        "edgesim.workload.draw_chunk_s": s["edgesim.workload.draw_chunk"].busy_s,
        "telemetry.tick_s": s["telemetry.tick"].busy_s,
        "telemetry.observe_s": s["telemetry.observe"].busy_s,
    }
    for policy in ("RM", "DML", "CRL", "DCTA"):
        metrics[f"allocation.plan_s.{policy}"] = s[f"allocation.plan.{policy}"].busy_s
    return metrics
