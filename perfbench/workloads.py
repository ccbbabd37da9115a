"""The benchmark's workloads: inputs from a seed, set-up, timed phase and
output checks, each through the package's public entry points.

Every workload object offers the same steps:

- ``inputs(seed, seconds)`` — the generated inputs (a pure function of
  the seed; ``seconds`` only sizes the paced serve runs), and
  ``fingerprint(inputs)`` — the data they generate, for comparison;
- ``setup(inputs)`` — the work counted as set-up time;
- ``run(state, seconds, plan=None, check=True, details=False)`` — the
  timed phase. It runs for ``seconds`` (and at least :data:`MIN_REPEATS`
  units) unless ``plan`` repeats the exact work of an earlier run, as the
  traced pass does. ``details`` adds the work that only the per-layer
  details need (the paced serve ladder), outside the timed blocks. It
  returns a record holding the timings, the work plan, the errors of the
  output checks and the wall time of its timed blocks — each block one
  call into the package;
- ``end_to_end(run)`` — the gated metrics, from block times scaled to the
  nominal host speed (:mod:`perfbench.host`), and ``details(run)`` — the
  per-layer metrics named in ``detail_names`` that come from results,
  not from the tracer.
"""

from __future__ import annotations

import gc
from array import array
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import repro
from repro.edgesim.fleet import FleetConfig, FleetSimulator
from repro.tatim.greedy import density_greedy
from repro.tatim.solution import Allocation

from perfbench import config
from perfbench.host import HostSpeed
from perfbench.stats import med, percentile, tail


@dataclass
class Run:
    """What one timed phase measured."""

    plan: dict
    blocks_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Set-up repetitions the phase made itself (fleet builds), in
    #: nominal seconds.
    setup_s: list[float] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    #: Median reference kernel time over the phase.
    ref_ms: float = 0.0


def _keep_going(plan: dict | None, key: str, done: int, spent: float, budget: float, least: int) -> bool:
    if plan is not None:
        return done < plan[key]
    return spent < budget or done < least


# ----------------------------------------------------------------------
# pipeline: DCTASystem build, then run_epoch over the eval days
# ----------------------------------------------------------------------
class _PlanProbe:
    """Times and keeps every plan() of one allocator."""

    def __init__(self, allocator) -> None:
        self.allocator = allocator
        self.seconds: list[float] = []
        self.plans: list = []

    def plan(self, tasks, nodes, context=None):
        start = perf_counter()
        plan = self.allocator.plan(tasks, nodes, context)
        self.seconds.append(perf_counter() - start)
        self.plans.append(plan)
        return plan


POLICIES = ("RM", "DML", "CRL", "DCTA")


class Pipeline:
    name = "pipeline"
    tail_q = config.PIPELINE_TAIL_Q
    detail_names = (
        "core.plan_ms_p50", "core.plan_ms_tail", "core.epoch_s_tail", "core.pt_dcta_s",
        "core.pt_dcta_over_crl", "core.failed_share",
    )

    def inputs(self, seed: int, seconds: float) -> repro.DCTASystemConfig:
        return repro.DCTASystemConfig(seed=seed)

    def fingerprint(self, inputs) -> list:
        dataset = repro.BuildingOperationDataset(inputs.building).generate()
        return [inputs] + [(task.X, task.y) for task in dataset.tasks]

    def setup(self, inputs):
        return repro.DCTASystem(inputs).build()

    def run(
        self, system, seconds: float, plan: dict | None = None, check: bool = True,
        details: bool = False,
    ) -> Run:
        days = [int(day) for day in system.eval_days]
        least = max(int(np.ceil(10.0 / (1.0 - self.tail_q / 100.0))), len(days))
        originals = system.allocators
        probes = {name: _PlanProbe(allocator) for name, allocator in originals.items()}
        if check:
            system.allocators = probes
        run = Run(plan={})
        epoch_s: list[float] = []
        nominal_s: list[float] = []
        results: list[dict] = []
        speed = HostSpeed()
        try:
            while _keep_going(plan, "epochs", len(epoch_s), sum(epoch_s), seconds, least):
                day = days[len(epoch_s) % len(days)]
                start = perf_counter()
                outcome = system.run_epoch(day)
                epoch_s.append(perf_counter() - start)
                nominal_s.append(epoch_s[-1] * speed.scale())
                results.append(outcome)
        finally:
            system.allocators = originals
        run.plan = {"epochs": len(epoch_s)}
        run.blocks_s = sum(epoch_s)
        run.ref_ms = speed.ref_ms()
        run.attempted = len(results)
        run.failed = sum(not outcome["DCTA"].gate_crossed for outcome in results)
        run.data = {"epoch_s": epoch_s, "nominal_s": nominal_s, "plan_s": probes["DCTA"].seconds}
        if check:
            first = results[: len(days)]
            pt = {name: float(np.mean([r[name].processing_time for r in first])) for name in POLICIES}
            run.data["pt"] = pt
            run.errors = self._check(system, days, results, probes, pt)
        return run

    def _check(self, system, days, results, probes, pt) -> list[str]:
        errors: list[str] = []
        task_ids = {task.task_id for task in system.workload}
        node_ids = {node.node_id for node in system.nodes}
        for name in POLICIES:
            for plan in probes[name].plans:
                tasks = [task for task, _ in plan.assignments]
                if len(tasks) != len(task_ids) or set(tasks) != task_ids:
                    errors.append(f"{name} plan does not place every task exactly once")
                if not {node for _, node in plan.assignments} <= node_ids:
                    errors.append(f"{name} plan uses an unknown processor")
        # Definition 4 on the TATIM allocation behind the CRL and DCTA plans:
        # budget T, capacity V_p, each task on at most one processor.
        crl = system.allocators["CRL"].model
        for day in days:
            sensing = system.context_for_day(day).sensing
            problem = crl.geometry.scaled(importance=crl.estimate_importance(sensing))
            violations = crl.allocate(sensing).violations(problem)
            if violations:
                errors.append(f"day {day}: CRL allocation infeasible: {violations[0]}")
        # The same day simulates to the same processing time on every pass,
        # up to the host-timed allocation latency the simulator adds.
        for name in POLICIES:
            if name == "RM":  # draws a fresh random plan every epoch
                continue
            plans = probes[name].plans
            for index in range(len(days), len(results)):
                first = index % len(days)
                a = results[first][name].processing_time - plans[first].allocation_time
                b = results[index][name].processing_time - plans[index].allocation_time
                if not np.isclose(a, b, rtol=1e-9, atol=1e-6):
                    errors.append(f"{name} processing time of day {days[first]} changed between passes")
                    break
        # DCTA <= CRL is not enforced: at the default config DCTA trails CRL
        # by a few percent on some seeds; the ratio is reported instead.
        if not (pt["CRL"] <= pt["DML"] <= pt["RM"] and pt["DCTA"] <= pt["DML"]):
            errors.append(f"mean processing time out of order: {pt}")
        return errors

    def end_to_end(self, run: Run) -> dict:
        nominal_s = run.data["nominal_s"]
        return {
            "throughput_per_s": len(nominal_s) / sum(nominal_s),
            "latency_ms_p50": med(nominal_s) * 1e3,
            "_samples": len(nominal_s),
        }

    def details(self, run: Run) -> dict:
        pt = run.data["pt"]
        plan_ms = [s * 1e3 for s in run.data["plan_s"]]
        return {
            "core.plan_ms_p50": med(plan_ms),
            "core.plan_ms_tail": tail(plan_ms, self.tail_q)[1],
            "core.epoch_s_tail": tail(run.data["epoch_s"], self.tail_q)[1],
            "core.pt_dcta_s": pt["DCTA"],
            "core.pt_dcta_over_crl": pt["DCTA"] / pt["CRL"],
            "core.failed_share": run.failed / run.attempted,
        }


# ----------------------------------------------------------------------
# serve: unpaced capacity drains and closed-loop calls, plus (for the
# per-layer details) a paced three-rate ladder
# ----------------------------------------------------------------------
@dataclass
class _Rung:
    rate: float
    sent: int
    ok_latency_s: np.ndarray
    queue_s: np.ndarray
    service_s: np.ndarray
    overrun_s: float

    def meets_slo(self) -> bool:
        admitted = len(self.ok_latency_s) / self.sent
        # Refused requests count as missing the latency limit.
        latencies = np.concatenate(
            [self.ok_latency_s, np.full(self.sent - len(self.ok_latency_s), np.inf)]
        )
        p99 = float(np.percentile(latencies, config.SLO_TAIL_Q, method="inverted_cdf"))
        return (
            admitted >= config.SLO_ADMITTED
            and p99 <= config.SLO_P99_S
            and self.overrun_s <= config.SLO_MAX_OVERRUN_S
        )


class Serve:
    tail_q = config.SERVE_TAIL_Q
    detail_names = (
        "serve.latency_ms_p50", "serve.latency_ms_tail", "serve.latency_low_ms_p50",
        "serve.latency_low_ms_tail", "serve.closed_ms_tail", "serve.queue_wait_ms_p50", "serve.queue_wait_ms_tail", "serve.overrun_s",
        "serve.service_ms_p50", "serve.slo_rate_rps", "serve.alloc_value",
        "serve.failed_share",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.sampler, self.redraw_every, self.capacity, self.ladder = config.SERVE[name]

    def inputs(self, seed: int, seconds: float) -> tuple:
        geometry = repro.random_instance(
            config.SERVE_GEOMETRY["n_tasks"],
            config.SERVE_GEOMETRY["n_processors"],
            seed=config.SERVE_GEOMETRY_SEED,
        )
        return geometry, [
            repro.ServeConfig(
                arrival_rate_hz=rate,
                duration_s=share * seconds,
                sampler=self.sampler,
                redraw_every=self.redraw_every,
                seed=seed,
                **config.SERVE_GEOMETRY,
            )
            for rate, share in zip(self.ladder, config.RUNG_SHARES)
        ]

    def fingerprint(self, inputs) -> list:
        geometry, configs = inputs
        out = [geometry.importance, geometry.times, geometry.resources, *configs]
        for serve_config in configs:
            _, requests = repro.generate_trace(serve_config, geometry=geometry)
            out.append(np.array([r.arrival_s for r in requests]))
            out.append(np.array([r.importance for r in requests]))
        return out

    def setup(self, inputs):
        geometry, configs = inputs
        traces = [
            repro.generate_trace(serve_config, geometry=geometry)[1]
            for serve_config in configs
        ]
        repro.Dispatcher(geometry, configs[0]).close()
        return inputs, traces

    def run(
        self, state, seconds: float, plan: dict | None = None, check: bool = True,
        details: bool = False,
    ) -> Run:
        (geometry, inputs), traces = state
        # Per-request records are kept as packed floats and running sums, so
        # that the benchmark's own memory does not grow with the number of
        # requests a faster host gets through.
        run = Run(plan={}, data={"objective_sum": 0.0, "answered": 0})
        drain_rps: list[float] = []
        # Capacity (the head of the middle rate's trace drained unpaced) and
        # the closed loop (one caller at a time through Dispatcher.serve,
        # over the lowest rate's trace) alternate in short rounds, so both
        # sample the whole unpaced phase. Each drain and each pass of the
        # closed loop starts with a fresh dispatcher.
        middle_config, lowest_config = inputs[1], inputs[0]
        head = traces[1][: int(self.capacity * config.DRAIN_S)]
        lowest = traces[0]
        chunk = int(self.capacity * config.CLOSED_S)
        closed_ms = array("d")
        nominal_ms = array("d")
        closed = repro.Dispatcher(geometry, lowest_config)
        position = 0
        spent = 0.0
        budget = (config.UNPACED_SHARE if details else 1.0) * seconds
        speed = HostSpeed()
        while _keep_going(plan, "rounds", len(drain_rps), spent, budget, config.MIN_REPEATS):
            dispatcher = repro.Dispatcher(geometry, middle_config)
            start = perf_counter()
            report = dispatcher.replay(head)
            elapsed = perf_counter() - start
            dispatcher.close()
            spent += elapsed
            drain_rps.append(len(head) / (elapsed * speed.scale()))
            self._account(run, geometry, head, report.responses, check)
            del report
            requests = lowest[position : position + chunk]
            responses = []
            for request in requests:
                start = perf_counter()
                responses.append(closed.serve(request))
                elapsed = perf_counter() - start
                spent += elapsed
                closed_ms.append(elapsed * 1e3)
            scale = speed.scale()
            nominal_ms.extend(ms * scale for ms in closed_ms[-len(requests) :])
            self._account(run, geometry, requests, responses, check)
            position += len(requests)
            if position == len(lowest):
                closed.close()
                closed, position = repro.Dispatcher(geometry, lowest_config), 0
        closed.close()
        run.blocks_s += spent
        run.ref_ms = speed.ref_ms()
        run.plan = {"rounds": len(drain_rps)}
        run.data.update(drain_rps=drain_rps, closed_ms=closed_ms, nominal_ms=nominal_ms)
        if details:
            run.data["rungs"] = self._ladder(run, geometry, inputs, traces, check)
        return run

    def _ladder(self, run: Run, geometry, inputs, traces, check) -> list[_Rung]:
        """Dispatcher.run paced at each ladder rate; its wall time is set by
        the schedule, so it stays out of the timed blocks."""
        rungs: list[_Rung] = []
        for serve_config, requests in zip(inputs, traces):
            dispatcher = repro.Dispatcher(geometry, serve_config)
            start = perf_counter()
            report = dispatcher.run(requests)
            elapsed = perf_counter() - start
            dispatcher.close()
            ok = [r for r in report.responses if r.status == "ok"]
            rungs.append(
                _Rung(
                    rate=serve_config.arrival_rate_hz,
                    sent=len(requests),
                    ok_latency_s=np.array([r.latency_s for r in ok]),
                    queue_s=np.array([r.queue_delay_s for r in ok]),
                    service_s=np.array([r.service_s for r in ok]),
                    overrun_s=elapsed - requests[-1].arrival_s,
                )
            )
            self._account(run, geometry, requests, report.responses, check)
            del report, ok
        return rungs

    def _account(self, run: Run, geometry, requests, responses, check) -> None:
        """Count, score and check the responses to a contiguous run of requests."""
        ok = [r for r in responses if r.status == "ok"]
        run.attempted += len(requests)
        run.failed += len(requests) - len(ok)
        first = requests[0].request_id
        for response in ok:
            total = float(requests[response.request_id - first].importance.sum())
            run.data["objective_sum"] += response.objective / total
        run.data["answered"] += len(ok)
        if check:
            run.errors.extend(self._check(geometry, requests, responses, ok))

    def _check(self, geometry, requests, responses, ok) -> list[str]:
        errors: list[str] = []
        first = requests[0].request_id
        if sorted(r.request_id for r in responses) != list(range(first, first + len(requests))):
            errors.append("responses do not answer every request exactly once")
        # Feasibility depends on times, resources, T and V_p only, which
        # every request shares with the geometry.
        seen: set = set()
        for response in ok:
            key = tuple(sorted(response.assignment.items()))
            if key in seen:
                continue
            seen.add(key)
            allocation = Allocation.from_assignment(
                response.assignment, geometry.n_tasks, geometry.n_processors
            )
            violations = allocation.violations(geometry)
            if violations:
                errors.append(f"request {response.request_id}: infeasible: {violations[0]}")
                break
        step = max(1, len(ok) // config.SERVE_SAMPLE)
        for response in ok[::step]:
            request = requests[response.request_id - first]
            direct = density_greedy(geometry.scaled(importance=request.importance))
            if response.assignment != direct.as_assignment():
                errors.append(f"request {response.request_id}: differs from a direct solve")
                break
        return errors

    def end_to_end(self, run: Run) -> dict:
        nominal_ms = run.data["nominal_ms"]
        return {
            "throughput_per_s": med(run.data["drain_rps"]),
            "latency_ms_p50": percentile(nominal_ms, 50.0),
            "_samples": len(nominal_ms),
        }

    def details(self, run: Run) -> dict:
        rungs = run.data["rungs"]
        lowest, middle = rungs[0], rungs[1]
        low_ms = lowest.ok_latency_s * 1e3
        latency_ms = middle.ok_latency_s * 1e3
        queue_ms = middle.queue_s * 1e3
        met = [rung.rate for rung in rungs if rung.meets_slo()]
        return {
            "serve.latency_ms_p50": percentile(latency_ms, 50.0),
            "serve.latency_ms_tail": tail(latency_ms, config.SLO_TAIL_Q)[1],
            "serve.latency_low_ms_p50": percentile(low_ms, 50.0),
            "serve.latency_low_ms_tail": tail(low_ms, self.tail_q)[1],
            "serve.closed_ms_tail": tail(run.data["closed_ms"], config.SLO_TAIL_Q)[1],
            "serve.queue_wait_ms_p50": percentile(queue_ms, 50.0),
            "serve.queue_wait_ms_tail": tail(queue_ms, config.SLO_TAIL_Q)[1],
            "serve.overrun_s": rungs[-1].overrun_s,
            "serve.service_ms_p50": percentile(middle.service_s * 1e3, 50.0),
            "serve.slo_rate_rps": max(met, default=0.0),
            "serve.alloc_value": run.data["objective_sum"] / run.data["answered"],
            "serve.failed_share": run.failed / run.attempted,
        }


# ----------------------------------------------------------------------
# fleet: FleetSimulator.build(...).run_fleet() at 100k nodes with churn
# ----------------------------------------------------------------------
#: FleetResult fields that must repeat exactly across runs at one seed.
FLEET_COUNTS = (
    "arrivals", "completed", "dropped", "redispatched", "failures",
    "recoveries", "events", "peak_in_flight",
    "latency_mean_s", "latency_p50_s", "latency_p95_s", "latency_p99_s",
)


class Fleet:
    name = "fleet"
    detail_names = (
        "edgesim.fleet.latency_ms_tail", "edgesim.fleet.events", "edgesim.fleet.arrivals", "edgesim.fleet.completed",
        "edgesim.fleet.redispatched", "edgesim.fleet.failures",
        "edgesim.fleet.redispatch_share", "edgesim.fleet.failed_share",
    )

    def inputs(self, seed: int, seconds: float) -> FleetConfig:
        return FleetConfig(seed=seed, **config.FLEET)

    def fingerprint(self, inputs) -> list:
        return [inputs]

    def setup(self, inputs):
        return [inputs, FleetSimulator.build(inputs)]

    def run(
        self, state, seconds: float, plan: dict | None = None, check: bool = True,
        details: bool = False,
    ) -> Run:
        # Take the simulator out of the caller's state, so that each
        # rebuild below replaces it rather than adding to peak memory.
        fleet_config, simulator = state[0], state.pop()
        run = Run(plan={})
        run_s: list[float] = []
        nominal_s: list[float] = []
        counts: list[dict] = []
        speed = HostSpeed()
        while _keep_going(plan, "runs", len(run_s), sum(run_s), seconds, config.MIN_REPEATS):
            if simulator is None:
                gc.collect()
                start = perf_counter()
                simulator = FleetSimulator.build(fleet_config)
                elapsed = perf_counter() - start
                run.blocks_s += elapsed
                run.setup_s.append(elapsed * speed.scale())
            start = perf_counter()
            result = simulator.run_fleet()
            run_s.append(perf_counter() - start)
            nominal_s.append(run_s[-1] * speed.scale())
            simulator = None
            counts.append({name: getattr(result, name) for name in FLEET_COUNTS})
            run.attempted += result.arrivals
            run.failed += result.dropped
            if check and result.arrivals != result.completed + result.dropped:
                run.errors.append(
                    f"arrivals {result.arrivals} != completed {result.completed}"
                    f" + dropped {result.dropped}"
                )
            del result
        run.blocks_s += sum(run_s)
        if any(c != counts[0] for c in counts[1:]):
            run.errors.append("fleet results differ between runs at one seed")
        run.plan = {"runs": len(run_s)}
        run.ref_ms = speed.ref_ms()
        run.data = {"nominal_s": nominal_s, "counts": counts[0]}
        return run

    def end_to_end(self, run: Run) -> dict:
        counts = run.data["counts"]
        rates = [counts["completed"] / seconds for seconds in run.data["nominal_s"]]
        return {
            "throughput_per_s": med(rates),
            "latency_ms_p50": counts["latency_p50_s"] * 1e3,
            "_samples": counts["completed"],
        }

    def details(self, run: Run) -> dict:
        counts = run.data["counts"]
        return {
            "edgesim.fleet.latency_ms_tail": counts["latency_p99_s"] * 1e3,
            "edgesim.fleet.events": counts["events"],
            "edgesim.fleet.arrivals": counts["arrivals"],
            "edgesim.fleet.completed": counts["completed"],
            "edgesim.fleet.redispatched": counts["redispatched"],
            "edgesim.fleet.failures": counts["failures"],
            "edgesim.fleet.redispatch_share": counts["redispatched"] / counts["arrivals"],
            "edgesim.fleet.failed_share": counts["dropped"] / counts["arrivals"],
        }


WORKLOADS = {
    "pipeline": Pipeline(),
    "serve_drift": Serve("serve_drift"),
    "serve_shift": Serve("serve_shift"),
    "fleet": Fleet(),
}