"""Tracked performance benchmarks behind ``repro bench``.

Times the pipeline's hot paths — building-dataset generation, the full
:class:`~repro.core.dcta_system.DCTASystem` build, per-cluster CRL
training at ``jobs=1`` vs ``jobs=N``, cold- vs warm-cache planning, and
the allocation-serving data plane (``serve_*``) — and writes the results
to ``BENCH_perf.json`` at the repo root so the performance trajectory is
tracked commit over commit.

Schema (one entry per bench)::

    {"<bench_name>": {"mean_s": float, "std_s": float, "rounds": int, "commit": str}}

Serve and fleet benches append informational KPI extras
(``throughput_rps``, ``latency_p95_ms``, ``rejected``,
``events_per_sec``, ``peak_rss_mib``, ...) to their entries; the
regression gate ignores them, and :func:`bench_table` surfaces them in
the ``repro bench`` output. Peak RSS is always mebibytes
(:func:`peak_rss_mib` normalizes the platform-dependent ``ru_maxrss``
unit — KiB on Linux, bytes on macOS).

:func:`write_bench_json` merges into an existing file, so partial runs
(e.g. the pytest ``benchmarks/perf/`` suite, which reuses this writer)
update their entries without clobbering the rest.

:func:`check_regressions` closes the loop: ``repro bench --check``
compares a fresh run against a baseline ``BENCH_perf.json`` with
per-bench relative thresholds (plus a std-derived noise allowance and a
floor below which micro-benches are informational only) and reports
failures, so perf work is gated rather than just tracked.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
import time
from functools import partial
from pathlib import Path

import numpy as np

from repro.core.experiment import PTExperiment, build_allocators
from repro.core.scenario import ScenarioConfig, SyntheticScenario
from repro.allocation.base import EpochContext
from repro.edgesim.testbed import scaled_testbed
from repro.tatim.cache import AllocationCache, use_allocation_cache
from repro.telemetry import (
    MetricsRegistry,
    get_registry,
    telemetry_enabled,
    use_registry,
)

#: Default output path, relative to the current working directory (CI
#: runs from the repo root; the pytest suite resolves the root itself).
DEFAULT_BENCH_PATH = "BENCH_perf.json"


def bench_commit() -> str:
    """Short git commit hash, or ``"unknown"`` outside a checkout.

    The hash carries a ``-dirty`` suffix when tracked files differ from
    that commit, so figures measured on uncommitted changes are never
    credited to the commit they sit on.
    """
    try:
        return (
            subprocess.run(
                ["git", "describe", "--always", "--dirty", "--exclude=*"],
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
            or "unknown"
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def record(
    results: dict,
    name: str,
    mean_s: float,
    rounds: int,
    *,
    std_s: float = 0.0,
    commit: str | None = None,
    extra: dict | None = None,
) -> None:
    """Append one bench entry in the ``BENCH_perf.json`` schema.

    ``extra`` merges additional keys (serving KPIs: ``throughput_rps``,
    ``latency_p95_ms``, ``rejected``, ...) into the entry; the regression
    gate only reads ``mean_s``/``std_s``, so extras are informational.

    Every entry is stamped with the interpreter and numpy versions it was
    measured under: numpy upgrades routinely move kernel-bound means by
    more than the gate's threshold, so :func:`baseline_warnings` can flag
    a stale-runtime baseline instead of letting the gate misfire.
    """
    entry = {
        "mean_s": float(mean_s),
        "std_s": float(std_s),
        "rounds": int(rounds),
        "commit": commit if commit is not None else bench_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if extra:
        entry.update(extra)
    results[name] = entry


def write_bench_json(results: dict, path=DEFAULT_BENCH_PATH) -> None:
    """Merge ``results`` into the JSON file at ``path`` (create if absent)."""
    path = Path(path)
    merged: dict = {}
    if path.exists():
        try:
            merged = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            merged = {}
    merged.update(results)
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n", encoding="utf-8")


#: Entry keys every bench carries; anything else is an informational
#: extra (serving KPIs, events/sec, peak RSS, ...) surfaced by
#: :func:`bench_table` rather than living only in ``BENCH_perf.json``.
_CORE_ENTRY_KEYS = frozenset({"mean_s", "std_s", "rounds", "commit", "python", "numpy"})


def peak_rss_mib() -> float:
    """Process peak RSS in MiB, normalized across platforms.

    ``resource.getrusage(...).ru_maxrss`` is kibibytes on Linux but bytes
    on macOS; converting here (once) keeps every ``peak_rss_mib`` bench
    extra in the same unit regardless of where it was recorded.
    """
    import resource
    import sys

    peak = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def bench_table(results: dict) -> str:
    from repro.utils.reporting import format_table

    rows = []
    for name, entry in sorted(results.items()):
        extras = ", ".join(
            f"{key}={entry[key]}" for key in entry if key not in _CORE_ENTRY_KEYS
        )
        rows.append(
            [
                name,
                entry["mean_s"],
                entry.get("std_s", 0.0),
                entry["rounds"],
                entry["commit"],
                extras or "-",
            ]
        )
    return format_table(
        ["bench", "mean_s", "std_s", "rounds", "commit", "extras"],
        rows,
        title="repro bench",
    )


def _timed(fn, rounds: int) -> tuple[float, float, object]:
    """(mean seconds, population std, last result) over ``rounds`` calls."""
    result = None
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - started)
    samples = np.asarray(samples)
    return float(samples.mean()), float(samples.std()), result


def _timed_interleaved(fns: dict, rounds: int) -> dict:
    """Time several variants with interleaved rounds (A B A B ... not A A B B).

    Clock speed drifts over a bench process's lifetime (thermal/turbo
    decay, background load), so timing all of variant A's rounds before
    variant B's biases whichever runs later. Interleaving spreads the
    drift evenly across variants. Returns
    ``{name: (mean_s, std_s, last_result)}``.
    """
    samples: dict = {name: [] for name in fns}
    last: dict = {name: None for name in fns}
    for _ in range(rounds):
        for name, fn in fns.items():
            started = time.perf_counter()
            last[name] = fn()
            samples[name].append(time.perf_counter() - started)
    return {
        name: (
            float(np.mean(samples[name])),
            float(np.std(samples[name])),
            last[name],
        )
        for name in fns
    }


def _family_total(registry, name: str) -> float:
    """Sum of a counter family across label sets (0 when absent)."""
    for family in registry.families():
        if family.name == name:
            return float(sum(child.value for child in family.children.values()))
    return 0.0


# ----------------------------------------------------------------------
# Regression gate

#: Default allowed current/baseline mean ratio before a bench fails.
DEFAULT_THRESHOLD = 1.25

#: Per-bench overrides for benches whose absolute times are so small that
#: scheduler jitter regularly exceeds the default relative threshold.
PER_BENCH_THRESHOLD = {
    "building_dataset_generate": 1.6,
    "plan_10x_uncached": 2.0,
    "plan_10x_cold_cache": 2.0,
    "plan_10x_warm_cache": 2.5,
}

#: Benches with baseline means under this floor are reported but never
#: fail the gate — at sub-millisecond scale the ratio is pure noise.
MIN_GATED_SECONDS = 0.002


def check_regressions(
    current: dict,
    baseline: dict,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[list[str], str]:
    """Compare a fresh bench run against a baseline ``BENCH_perf.json``.

    A bench regresses when its current mean exceeds
    ``baseline_mean * limit + 2 * max(stds)`` where ``limit`` is the
    per-bench threshold (``PER_BENCH_THRESHOLD`` falling back to
    ``threshold``) and the std term absorbs recorded round-to-round
    noise. Benches only present on one side are reported as ``new`` /
    ``missing`` but never fail; neither do sub-floor micro-benches.

    Returns ``(failures, table)`` — an empty ``failures`` list means the
    gate passes. Baselines must be produced on the same machine as the
    current run; cross-machine ratios are meaningless.
    """
    from repro.utils.reporting import format_table

    failures: list[str] = []
    rows = []
    for name in sorted(set(baseline) | set(current)):
        base = baseline.get(name)
        cur = current.get(name)
        if base is None:
            rows.append([name, "-", cur["mean_s"], "-", "-", "new"])
            continue
        if cur is None:
            rows.append([name, base["mean_s"], "-", "-", "-", "missing"])
            continue
        limit = PER_BENCH_THRESHOLD.get(name, threshold)
        base_mean = float(base["mean_s"])
        cur_mean = float(cur["mean_s"])
        ratio = cur_mean / base_mean if base_mean > 0 else float("inf")
        noise = 2.0 * max(float(base.get("std_s", 0.0)), float(cur.get("std_s", 0.0)))
        if base_mean < MIN_GATED_SECONDS:
            status = "ok (ungated: micro)"
        elif cur_mean > base_mean * limit + noise:
            status = "REGRESSION"
            failures.append(
                f"{name}: {cur_mean:.4f}s vs baseline {base_mean:.4f}s "
                f"(ratio {ratio:.2f}x > limit {limit:.2f}x + noise {noise:.4f}s)"
            )
        else:
            status = "ok"
        rows.append([name, base_mean, cur_mean, f"{ratio:.2f}x", f"{limit:.2f}x", status])
    table = format_table(
        ["bench", "baseline_s", "current_s", "ratio", "limit", "status"],
        rows,
        title="bench regression check",
    )
    return failures, table


def baseline_warnings(baseline: dict) -> list[str]:
    """Consistency warnings for a baseline ``BENCH_perf.json``.

    The regression gate assumes every baseline entry describes the same
    code state and runtime; this audits that assumption without failing
    the gate:

    - **mixed commits** — entries recorded at different commits compare
      the current run against several historical code states at once
      (typical after partial pytest-suite merges); regenerate with one
      full ``repro bench`` run;
    - **runtime drift** — entries stamped with a different interpreter or
      numpy version than the current process (kernel-bound means shift
      across numpy releases). Entries predating the version stamps are
      skipped.
    """
    warnings: list[str] = []
    if not baseline:
        return warnings
    commits = sorted({entry.get("commit", "unknown") for entry in baseline.values()})
    if len(commits) > 1:
        warnings.append(
            f"baseline mixes entries from {len(commits)} commits "
            f"({', '.join(commits)}); ratios compare against inconsistent "
            "code states — regenerate with one full `repro bench` run"
        )
    pythons = sorted({e["python"] for e in baseline.values() if "python" in e})
    current_python = platform.python_version()
    if pythons and (len(pythons) > 1 or pythons[0] != current_python):
        warnings.append(
            f"baseline recorded under python {', '.join(pythons)} but current "
            f"run is {current_python}; absolute times are not comparable"
        )
    numpys = sorted({e["numpy"] for e in baseline.values() if "numpy" in e})
    if numpys and (len(numpys) > 1 or numpys[0] != np.__version__):
        warnings.append(
            f"baseline recorded under numpy {', '.join(numpys)} but current "
            f"run is {np.__version__}; kernel-bound means may shift"
        )
    return warnings


def load_bench_json(path=DEFAULT_BENCH_PATH) -> dict:
    """Read a ``BENCH_perf.json`` baseline (empty dict when absent)."""
    path = Path(path)
    if not path.exists():
        return {}
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return {}


# ----------------------------------------------------------------------
def run_bench(
    *,
    jobs: int = 4,
    quick: bool = True,
    rounds: int = 3,
    out: str | None = DEFAULT_BENCH_PATH,
) -> tuple[dict, list[str]]:
    """Run the tracked perf suite; returns (results, human-readable notes).

    ``quick`` uses CI-sized workloads (the default); disable it for
    higher-fidelity numbers. The cache benches always verify that cached
    and uncached plans agree byte-for-byte before reporting speedups, and
    the importance benches verify ``jobs=1`` / ``jobs=N`` byte-identity.
    The worker pool is warmed once up front so parallel benches measure
    steady-state dispatch, not spin-up; it is shut down (and its shared
    segments released) before returning.
    """
    import os

    from repro.parallel import get_worker_pool, shutdown_worker_pool

    commit = bench_commit()
    results: dict = {}
    notes: list[str] = []
    notes.append(f"machine: {os.cpu_count() or 1} cpu(s); pool degrades to serial on 1")
    # Count solver/rollout invocations in the ambient registry when
    # telemetry is on (so cache hit-rate metrics reach the CLI exports),
    # else in a private one.
    registry = get_registry() if telemetry_enabled() else MetricsRegistry()
    try:
        with use_registry(registry):
            if jobs > 1 and (os.cpu_count() or 1) > 1:
                get_worker_pool().executor(min(jobs, os.cpu_count() or 1))
            _bench_dataset(results, rounds, commit, quick)
            _bench_system_build(results, rounds, commit, quick)
            _bench_crl_train(results, rounds, commit, quick, jobs, notes)
            _bench_stacked_train(results, rounds, commit, quick, notes)
            _bench_dqn(results, rounds, commit, quick)
            _bench_rollout_batch(results, rounds, commit, quick, notes)
            _bench_mlp_fit(results, rounds, commit, quick, notes)
            _bench_importance(results, rounds, commit, quick, jobs, notes)
            _bench_edgesim(results, rounds, commit, quick)
            _bench_fleet(results, rounds, commit, quick, notes)
            _bench_fleet_sharded(results, rounds, commit, quick, notes)
            _bench_plan_cache(results, rounds, commit, quick, notes, registry)
            _bench_serve(results, rounds, commit, quick, jobs, notes)
    finally:
        shutdown_worker_pool()
    if out is not None:
        write_bench_json(results, out)
        notes.append(f"wrote {len(results)} benches to {out}")
    return results, notes


def _bench_dataset(results, rounds, commit, quick) -> None:
    from repro.building.dataset import BuildingOperationConfig, BuildingOperationDataset

    config = BuildingOperationConfig(
        n_days=20 if quick else 90, n_buildings=2 if quick else 3, seed=7
    )
    mean_s, std_s, _ = _timed(lambda: BuildingOperationDataset(config).generate(), rounds)
    record(results, "building_dataset_generate", mean_s, rounds, std_s=std_s, commit=commit)


def _bench_system_build(results, rounds, commit, quick) -> None:
    from repro.building.dataset import BuildingOperationConfig
    from repro.core.dcta_system import DCTASystem, DCTASystemConfig

    config = DCTASystemConfig(
        building=BuildingOperationConfig(
            n_days=12 if quick else 30, n_buildings=2 if quick else 3, seed=0
        ),
        crl_episodes=4 if quick else 40,
        seed=0,
    )
    mean_s, std_s, _ = _timed(lambda: DCTASystem(config).build(), rounds)
    record(results, "dcta_system_build", mean_s, rounds, std_s=std_s, commit=commit)


def _train_scenario(quick: bool) -> SyntheticScenario:
    return SyntheticScenario(
        ScenarioConfig(
            n_tasks=24 if quick else 50,
            n_regimes=4,
            n_history=16 if quick else 32,
            n_eval=3 if quick else 6,
            fluctuation_sigma=0.7,
            seed=0,
        )
    )


def _bench_crl_train(results, rounds, commit, quick, jobs, notes) -> None:
    scenario = _train_scenario(quick)
    nodes, _ = scaled_testbed(6)
    episodes = 30 if quick else 80

    def train(n_jobs: int):
        return build_allocators(
            scenario, nodes, crl_episodes=episodes, crl_clusters=4, jobs=n_jobs, seed=0
        )

    if jobs > 1:
        timings = _timed_interleaved({"jobs1": lambda: train(1), "jobsN": lambda: train(jobs)}, rounds)
        serial_s, serial_std, _ = timings["jobs1"]
        parallel_s, parallel_std, _ = timings["jobsN"]
        record(
            results, "crl_train_4cluster_jobs1", serial_s, rounds, std_s=serial_std, commit=commit
        )
        record(
            results,
            f"crl_train_4cluster_jobs{jobs}",
            parallel_s,
            rounds,
            std_s=parallel_std,
            commit=commit,
        )
        notes.append(
            f"CRL train speedup at jobs={jobs}: {serial_s / max(parallel_s, 1e-9):.2f}x"
        )
    else:
        serial_s, serial_std, _ = _timed(lambda: train(1), rounds)
        record(
            results, "crl_train_4cluster_jobs1", serial_s, rounds, std_s=serial_std, commit=commit
        )


def _crl_params_sha(model) -> str:
    """Digest of every cluster agent's trained state (identity checks)."""
    digest = hashlib.sha256()
    for key in sorted(model._cluster_agents):
        agent = model._cluster_agents[key]
        digest.update(np.ascontiguousarray(agent.online._flat_params).tobytes())
        digest.update(np.ascontiguousarray(agent.target._flat_params).tobytes())
        digest.update(np.float64(agent.epsilon).tobytes())
        digest.update(np.int64(agent._steps).tobytes())
    return digest.hexdigest()


def _bench_stacked_train(results, rounds, commit, quick, notes) -> None:
    """Lockstep-stacked vs serial per-agent CRL training (same model).

    Times :meth:`CRLModel.fit` with the cross-agent stacked kernels
    forced on vs off (interleaved rounds), then asserts the two trained
    models are byte-identical — parameters, target nets, ε and step
    counters — before recording. The stacked path is what ``jobs=1``
    builds use by default, so ``crl_train_stacked`` tracks the number
    the `crl_train_4cluster_jobs1` entry rides on.
    """
    from repro.allocation.base import tatim_from_workload
    from repro.rl.crl import CRLModel
    from repro.rl.dqn import DQNConfig

    scenario = _train_scenario(quick)
    nodes, _ = scaled_testbed(6)
    geometry = tatim_from_workload(scenario.tasks, nodes)
    store = scenario.environment_store()
    episodes = 30 if quick else 80

    def fit(stacked: bool):
        model = CRLModel(
            geometry,
            n_clusters=4,
            episodes=episodes,
            dqn_config=DQNConfig(hidden_sizes=(64, 32)),
            jobs=1,
            seed=0,
            stacked=stacked,
        )
        return model.fit(store)

    timings = _timed_interleaved(
        {"stacked": lambda: fit(True), "unstacked": lambda: fit(False)}, rounds
    )
    stacked_s, stacked_std, stacked_model = timings["stacked"]
    serial_s, serial_std, serial_model = timings["unstacked"]
    if _crl_params_sha(stacked_model) != _crl_params_sha(serial_model):
        raise AssertionError("stacked CRL training diverged from serial training")
    record(results, "crl_train_stacked", stacked_s, rounds, std_s=stacked_std, commit=commit)
    record(
        results, "crl_train_unstacked", serial_s, rounds, std_s=serial_std, commit=commit
    )
    notes.append(
        f"stacked CRL training: {serial_s / max(stacked_s, 1e-9):.2f}x over serial "
        "(trained agents byte-identical)"
    )


def _bench_rollout_batch(results, rounds, commit, quick, notes) -> None:
    """Batched lockstep greedy rollouts vs one :meth:`solve` per instance.

    32 instances share the agent's geometry with per-instance importance
    vectors (the dispatcher's miss-group shape). Assignments from the
    batched pass are asserted identical to the serial loop's before the
    entries are recorded.
    """
    from repro.rl.dqn import DQNAgent, DQNConfig
    from repro.rl.env import AllocationEnv, BatchedAllocationEnv
    from repro.tatim.generators import random_instance

    base = random_instance(24 if quick else 50, 3, seed=11)
    env = AllocationEnv(base)
    agent = DQNAgent(
        env.state_dim,
        env.n_actions,
        DQNConfig(hidden_sizes=(128, 64), batch_size=32, warmup_transitions=64),
        seed=5,
    )
    for _ in range(4):
        agent.train_episode(env)
    importance_rng = np.random.default_rng(23)
    problems = [
        base.scaled(importance=importance_rng.uniform(0.1, 1.0, base.n_tasks))
        for _ in range(32)
    ]

    def serial():
        return [agent.solve(AllocationEnv(problem)) for problem in problems]

    def batched():
        return agent.solve_greedy_batch(BatchedAllocationEnv(problems))

    timings = _timed_interleaved({"serial": serial, "batched": batched}, rounds)
    serial_s, serial_std, serial_allocs = timings["serial"]
    batch_s, batch_std, batch_allocs = timings["batched"]
    if [a.as_assignment() for a in serial_allocs] != [
        a.as_assignment() for a in batch_allocs
    ]:
        raise AssertionError("batched greedy rollouts diverged from serial solves")
    record(results, "rollout_serial_x32", serial_s, rounds, std_s=serial_std, commit=commit)
    record(results, "rollout_batch_x32", batch_s, rounds, std_s=batch_std, commit=commit)
    notes.append(
        f"batched rollouts: {serial_s / max(batch_s, 1e-9):.2f}x over serial "
        "solves (allocations identical)"
    )


def _bench_mlp_fit(results, rounds, commit, quick, notes) -> None:
    """Fused-cache MLPRegressor training vs the naive per-batch loop.

    The naive variant replays exactly what ``fit`` did before the fused
    epoch driver — one ``train_batch`` (allocate, forward, backward) per
    mini-batch slice — on an identically seeded network, then the two
    parameter vectors are asserted bit-equal.
    """
    from repro.ml.mlp_regressor import MLPRegressor
    from repro.ml.neural import MLP, Adam
    from repro.ml.preprocessing import StandardScaler
    from repro.utils.rng import as_rng

    data_rng = np.random.default_rng(9)
    X = data_rng.normal(size=(256 if quick else 512, 12))
    y = np.sin(X @ data_rng.normal(size=12)) + 0.1 * data_rng.normal(size=X.shape[0])
    epochs, batch_size, seed = 40 if quick else 120, 32, 3

    def fused():
        model = MLPRegressor(
            hidden_sizes=(32, 16), epochs=epochs, batch_size=batch_size, seed=seed
        )
        model.fit(X, y)
        return model.network_._flat_params.copy()

    def naive():
        scaler = StandardScaler().fit(X)
        scaled_x = scaler.transform(X)
        scaled_y = ((y - float(y.mean())) / (float(y.std()) or 1.0)).reshape(-1, 1)
        network = MLP((X.shape[1], 32, 16, 1), optimizer=Adam(1e-3), seed=seed)
        rng = as_rng(seed)
        n = scaled_x.shape[0]
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                index = order[start : start + batch_size]
                network.train_batch(scaled_x[index], scaled_y[index])
        return network._flat_params.copy()

    timings = _timed_interleaved({"fused": fused, "naive": naive}, rounds)
    fused_s, fused_std, fused_params = timings["fused"]
    naive_s, naive_std, naive_params = timings["naive"]
    if not np.array_equal(fused_params, naive_params):
        raise AssertionError("fused MLP training diverged from the naive loop")
    record(results, "mlp_fit_fused", fused_s, rounds, std_s=fused_std, commit=commit)
    record(results, "mlp_fit_naive", naive_s, rounds, std_s=naive_std, commit=commit)
    notes.append(
        f"fused MLP fit: {naive_s / max(fused_s, 1e-9):.2f}x over naive loop "
        "(parameters bit-identical)"
    )


def dqn_bench_workloads(quick: bool = True) -> dict:
    """Name → zero-arg callable for the single-process DQN kernel benches.

    Shared by ``repro bench`` (:func:`_bench_dqn`) and the pytest perf
    suite (``benchmarks/perf/test_perf_dqn.py``) so both record under the
    same ``BENCH_perf.json`` keys. The agent is built once with its
    replay buffer filled past warmup, so every timed gradient step
    actually trains; workload sizes are chosen to land above the
    regression gate's micro-bench floor.
    """
    from repro.rl.dqn import DQNAgent, DQNConfig
    from repro.rl.env import AllocationEnv
    from repro.tatim.generators import random_instance

    problem = random_instance(24 if quick else 50, 3, seed=11)
    env = AllocationEnv(problem)
    config = DQNConfig(hidden_sizes=(128, 64), batch_size=32, warmup_transitions=64)
    agent = DQNAgent(env.state_dim, env.n_actions, config, seed=5)
    while len(agent.buffer) < 512:
        agent.train_episode(env)
    rollout_rng = np.random.default_rng(17)

    def train_steps():
        loss = None
        for _ in range(200):
            loss = agent.train_step()
        return loss

    def train_episodes():
        return [agent.train_episode(env) for _ in range(10)]

    def greedy_solves():
        return [agent.solve(env) for _ in range(20)]

    def env_rollouts():
        steps = 0
        for _ in range(50):
            env.reset()
            while not env.done:
                feasible = env.feasible_actions()
                env.step(int(rollout_rng.choice(feasible)))
                steps += 1
        env.reset()
        return steps

    return {
        "dqn_train_step_x200": train_steps,
        "dqn_train_episode_x10": train_episodes,
        "dqn_solve_greedy_x20": greedy_solves,
        "env_random_rollout_x50": env_rollouts,
    }


def _bench_dqn(results, rounds, commit, quick) -> None:
    """Single-process DQN kernel hot paths (the in-process speed lever)."""
    for name, fn in dqn_bench_workloads(quick).items():
        mean_s, std_s, _ = _timed(fn, rounds)
        record(results, name, mean_s, rounds, std_s=std_s, commit=commit)


def _bench_importance(results, rounds, commit, quick, jobs, notes) -> None:
    """Leave-one-out + Shapley evaluators at jobs=1 vs jobs=N.

    Fresh evaluators are built inside each timed call so the cross-call
    coalition caches never leak warmth between rounds; byte-identity of
    the jobs=1 and jobs=N outputs is asserted before recording.
    """
    from repro.building.dataset import BuildingOperationConfig, BuildingOperationDataset
    from repro.importance.importance import ImportanceEvaluator
    from repro.importance.shapley import ShapleyImportanceEvaluator
    from repro.transfer.registry import make_strategy

    dataset = BuildingOperationDataset(
        BuildingOperationConfig(n_days=12 if quick else 30, n_buildings=2, seed=3)
    ).generate()
    model_set = make_strategy("clustered", "ridge", seed=0).fit(dataset.tasks)
    days = np.arange(8 if quick else 20)
    n_permutations = 8 if quick else 16

    def loo(n_jobs: int):
        return ImportanceEvaluator(dataset, model_set, jobs=n_jobs).importance_matrix(days)

    def shapley(n_jobs: int):
        return ShapleyImportanceEvaluator(
            dataset, model_set, n_permutations=n_permutations, seed=5, jobs=n_jobs
        ).importance_for_day(1)

    if jobs > 1:
        # jobs=2 always, plus the requested fan-out, so one run records
        # every committed *_jobsN pair.
        fanouts = sorted({2, jobs})
        variants = {"loo1": lambda: loo(1), "shap1": lambda: shapley(1)}
        for n in fanouts:
            variants[f"loo{n}"] = partial(loo, n)
            variants[f"shap{n}"] = partial(shapley, n)
        timings = _timed_interleaved(variants, rounds)
        for family, key in (("loo_importance", "loo"), ("shapley_importance", "shap")):
            for n in (1, *fanouts):
                mean_s, std_s, _ = timings[f"{key}{n}"]
                record(results, f"{family}_jobs{n}", mean_s, rounds, std_s=std_s, commit=commit)
        for n in fanouts:
            for key in ("loo", "shap"):
                if not np.array_equal(timings[f"{key}1"][2], timings[f"{key}{n}"][2]):
                    raise AssertionError(f"importance at jobs={n} diverged from jobs=1")
            speedup = {
                key: timings[f"{key}1"][0] / max(timings[f"{key}{n}"][0], 1e-9)
                for key in ("loo", "shap")
            }
            notes.append(
                f"importance speedup at jobs={n}: LOO {speedup['loo']:.2f}x, "
                f"Shapley {speedup['shap']:.2f}x (byte-identical)"
            )
    else:
        loo1_s, loo1_std, _ = _timed(lambda: loo(1), rounds)
        record(results, "loo_importance_jobs1", loo1_s, rounds, std_s=loo1_std, commit=commit)
        shap1_s, shap1_std, _ = _timed(lambda: shapley(1), rounds)
        record(
            results, "shapley_importance_jobs1", shap1_s, rounds, std_s=shap1_std, commit=commit
        )


def _bench_edgesim(results, rounds, commit, quick) -> None:
    """EdgeSimulator epoch runs, with and without mid-run node failures."""
    from repro.edgesim.simulator import EdgeSimulator

    scenario = _train_scenario(quick)
    nodes, network = scaled_testbed(6)
    allocators = build_allocators(
        scenario, nodes, crl_episodes=10 if quick else 40, crl_clusters=3, seed=0
    )
    dcta = allocators["DCTA"]
    epoch = scenario.eval_epochs[0]
    workload = scenario.workload_for(epoch)
    context = EpochContext(sensing=epoch.sensing, features=epoch.features, day=epoch.day)
    plan = dcta.plan(workload, nodes, context)
    simulator = EdgeSimulator(nodes, network)
    # Knock out a third of the nodes mid-run so the re-dispatch path is
    # part of the tracked cost.
    failures = {node.node_id: 5.0 for node in list(nodes)[:: 3]}

    mean_s, std_s, _ = _timed(lambda: simulator.run(workload, plan), rounds)
    record(results, "edgesim_epoch_run", mean_s, rounds, std_s=std_s, commit=commit)
    mean_s, std_s, _ = _timed(
        lambda: simulator.run(workload, plan, failures=failures), rounds
    )
    record(results, "edgesim_epoch_run_failures", mean_s, rounds, std_s=std_s, commit=commit)


def _bench_fleet(results, rounds, commit, quick, notes) -> None:
    """Vectorized fleet engine: epoch-kernel speedup plus 10k/100k scale runs.

    The kernel entry interleaves ``FleetSimulator.run`` against the
    reference ``EdgeSimulator.run`` on the same testbed workload and
    asserts the results are identical before recording. The scale entries
    run the open-loop fleet at 10k and 100k nodes (regions and arrival
    rate scaled together so the access radio sits at the same ~60%
    utilization as the defaults) and record events/sec and process
    peak-RSS as informational extras.
    """
    from repro.edgesim.fleet import FleetConfig, FleetSimulator
    from repro.edgesim.simulator import EdgeSimulator, ExecutionPlan
    from repro.edgesim.workload import WorkloadGenerator

    nodes, network = scaled_testbed(6)
    workload = WorkloadGenerator(n_tasks=24 if quick else 50, seed=11).draw()
    ordered = sorted(workload, key=lambda t: t.true_importance, reverse=True)
    plan = ExecutionPlan(
        assignments=tuple(
            (task.task_id, i % len(nodes)) for i, task in enumerate(ordered)
        ),
        label="bench-fleet",
    )
    fast = FleetSimulator(nodes, network)
    reference = EdgeSimulator(nodes, network)
    timings = _timed_interleaved(
        {
            "fleet": lambda: fast.run(workload, plan),
            "reference": lambda: reference.run(workload, plan),
        },
        rounds,
    )
    fleet_s, fleet_std, fleet_result = timings["fleet"]
    ref_s, _, ref_result = timings["reference"]
    if fleet_result != ref_result:
        raise AssertionError("fleet epoch kernel diverged from EdgeSimulator")
    speedup = ref_s / max(fleet_s, 1e-9)
    record(
        results,
        "edgesim_fleet_epoch_kernel",
        fleet_s,
        rounds,
        std_s=fleet_std,
        commit=commit,
        extra={"speedup_vs_reference": round(speedup, 3)},
    )
    notes.append(
        f"fleet epoch kernel: {speedup:.2f}x over EdgeSimulator (results identical)"
    )

    # Scale tier: regions sized so each hosts ~125 nodes; arrival rate
    # keeps the per-region radio at the same utilization as the defaults
    # (30 arrivals/s over 8 regions).
    scale_rounds = max(3, rounds)
    for label, n_nodes in (("edgesim_fleet_10k", 10_000), ("edgesim_fleet_100k", 100_000)):
        n_regions = n_nodes // 125
        config = FleetConfig(
            n_nodes=n_nodes,
            n_regions=n_regions,
            duration_s=5.0 if quick else 20.0,
            arrival_rate_hz=30.0 * (n_regions / 8),
            churn_rate_hz=2.0,
            seed=0,
        )
        # One untimed warm-up, then fresh simulators for every timed round
        # (built outside the timing) so std_s reflects run-to-run noise.
        FleetSimulator.build(config).run_fleet()
        samples = []
        for _ in range(scale_rounds):
            simulator = FleetSimulator.build(config)
            started = time.perf_counter()
            fleet_run = simulator.run_fleet()
            samples.append(time.perf_counter() - started)
        mean_s, std_s = float(np.mean(samples)), float(np.std(samples))
        rss_mib = peak_rss_mib()
        record(
            results,
            label,
            mean_s,
            scale_rounds,
            std_s=std_s,
            commit=commit,
            extra={
                "nodes": n_nodes,
                "events": fleet_run.events,
                "events_per_sec": round(fleet_run.events / max(mean_s, 1e-9), 1),
                "completed": fleet_run.completed,
                "peak_rss_mib": round(rss_mib, 1),
            },
        )
        notes.append(
            f"{label}: {fleet_run.events / max(mean_s, 1e-9):,.0f} events/s "
            f"({fleet_run.completed} tasks, peak RSS {rss_mib:.0f} MiB)"
        )


def _bench_fleet_sharded(results, rounds, commit, quick, notes) -> None:
    """Region-sharded multiprocess fleet runs, up to the 1M-node regime.

    Before anything is recorded, the ``shards=1 == shards=N`` contract is
    asserted on a small config with worker processes forced, so the
    digest equality covers the real multiprocess path even on machines
    where the pool would otherwise decline to fan out. The scale entries
    then run the sharded engine at 100k and 1M nodes (same region/arrival
    scaling rule as ``_bench_fleet``) and record events/sec, peak RSS
    (MiB), shard/group counts and barrier crossings as extras. On >= 4
    cores the 100k entry also times the single-process ``shards=1`` run
    and asserts the sharded engine clears 2x its events/s.
    """
    import os

    from repro.edgesim.fleet import FleetConfig
    from repro.edgesim.shard import result_digest, run_fleet_sharded

    cpus = os.cpu_count() or 1
    shards = max(2, min(cpus, 8))

    identity = FleetConfig(
        n_nodes=20_000,
        n_regions=160,
        duration_s=3.0,
        arrival_rate_hz=30.0 * (160 / 8),
        churn_rate_hz=2.0,
        seed=0,
    )
    single = run_fleet_sharded(identity, shards=1)
    multi = run_fleet_sharded(identity, shards=shards, force=True)
    digest = result_digest(single.result)
    if result_digest(multi.result) != digest:
        raise AssertionError("sharded fleet run diverged from shards=1")
    notes.append(
        f"sharded fleet identity: shards=1 == shards={multi.shards} "
        f"(digest {digest})"
    )

    scale_rounds = 1
    for label, n_nodes, duration in (
        ("edgesim_fleet_sharded_100k", 100_000, 5.0 if quick else 20.0),
        ("edgesim_fleet_sharded_1m", 1_000_000, 2.0 if quick else 10.0),
    ):
        n_regions = n_nodes // 125
        config = FleetConfig(
            n_nodes=n_nodes,
            n_regions=n_regions,
            duration_s=duration,
            arrival_rate_hz=30.0 * (n_regions / 8),
            churn_rate_hz=2.0,
            seed=0,
        )
        mean_s, std_s, run = _timed(
            lambda config=config: run_fleet_sharded(config, shards=shards),
            scale_rounds,
        )
        events_per_sec = run.result.events / max(mean_s, 1e-9)
        rss_mib = peak_rss_mib()
        extra = {
            "nodes": n_nodes,
            "events": run.result.events,
            "events_per_sec": round(events_per_sec, 1),
            "completed": run.result.completed,
            "shards": run.shards,
            "groups": run.groups,
            "barrier_crossings": run.barrier_crossings,
            "peak_rss_mib": round(rss_mib, 1),
        }
        if label == "edgesim_fleet_sharded_100k" and cpus >= 4 and run.shards > 1:
            serial_s, _, serial_run = _timed(
                lambda: run_fleet_sharded(config, shards=1), scale_rounds
            )
            serial_eps = serial_run.result.events / max(serial_s, 1e-9)
            speedup = events_per_sec / max(serial_eps, 1e-9)
            extra["speedup_vs_1shard"] = round(speedup, 2)
            if speedup < 2.0:
                raise AssertionError(
                    f"sharded fleet at {run.shards} shards only reached "
                    f"{speedup:.2f}x over shards=1 on {cpus} cores (< 2x)"
                )
            notes.append(
                f"sharded fleet 100k: {speedup:.2f}x events/s over shards=1 "
                f"at {run.shards} shards"
            )
        record(
            results, label, mean_s, scale_rounds, std_s=std_s, commit=commit,
            extra=extra,
        )
        notes.append(
            f"{label}: {events_per_sec:,.0f} events/s at {run.shards} shard(s) "
            f"x {run.groups} groups ({run.result.completed} tasks, "
            f"peak RSS {rss_mib:.0f} MiB)"
        )


def _bench_plan_cache(results, rounds, commit, quick, notes, registry) -> None:
    """Cold vs warm cache planning over near-identical repeat queries.

    All three variants are timed over ``rounds`` rounds so the recorded
    entries carry a real ``std_s`` for the regression gate's noise
    allowance (they used to be single samples). Cold rounds each build a
    fresh :class:`AllocationCache` so every timed pass really is cold;
    warm rounds run against a cache primed by one untimed pass.
    Rollout counts are averaged per round.
    """
    scenario = _train_scenario(quick)
    nodes, _ = scaled_testbed(6)
    allocators = build_allocators(
        scenario, nodes, crl_episodes=10 if quick else 40, crl_clusters=3, seed=0
    )
    crl = allocators["CRL"]
    epoch = scenario.eval_epochs[0]
    workload = scenario.workload_for(epoch)
    # Repeat queries with sub-quantization jitter: the drift regime where
    # consecutive epochs quantize to the same environment.
    jitter_rng = np.random.default_rng(0)
    contexts = [
        EpochContext(
            sensing=epoch.sensing + jitter_rng.normal(0.0, 1e-9, size=epoch.sensing.shape),
            features=epoch.features,
            day=epoch.day,
        )
        for _ in range(10)
    ]

    def plan_all():
        return [crl.plan(workload, nodes, context) for context in contexts]

    def rollouts() -> float:
        return _family_total(registry, "repro_rl_crl_rollouts_total")

    before = rollouts()
    uncached_s, uncached_std, uncached_plans = _timed(plan_all, rounds)
    uncached_rollouts = (rollouts() - before) / rounds
    record(
        results, "plan_10x_uncached", uncached_s, rounds, std_s=uncached_std, commit=commit
    )

    def cold_pass():
        with use_allocation_cache(AllocationCache()):
            return plan_all()

    before = rollouts()
    cold_s, cold_std, cold_plans = _timed(cold_pass, rounds)
    cold_rollouts = (rollouts() - before) / rounds
    record(results, "plan_10x_cold_cache", cold_s, rounds, std_s=cold_std, commit=commit)

    cache = AllocationCache()
    with use_allocation_cache(cache):
        plan_all()  # prime once, untimed, so every timed pass is warm
        before = rollouts()
        warm_s, warm_std, warm_plans = _timed(plan_all, rounds)
        warm_rollouts = (rollouts() - before) / rounds
    record(results, "plan_10x_warm_cache", warm_s, rounds, std_s=warm_std, commit=commit)

    identical = all(
        a.assignments == b.assignments == c.assignments
        for a, b, c in zip(uncached_plans, cold_plans, warm_plans)
    )
    reduction = uncached_rollouts / max(cold_rollouts, 1.0)
    notes.append(
        f"cache: {int(uncached_rollouts)} rollouts/10 plans uncached vs "
        f"{int(cold_rollouts)} cold + {int(warm_rollouts)} warm "
        f"(hit ratio {cache.hit_ratio:.2f}); allocations byte-identical: {identical}"
    )
    if not identical:
        raise AssertionError("cached allocations diverged from uncached run")
    notes.append(
        f"cached-plan solver-invocation reduction: {reduction:.1f}x fewer rollouts"
    )


def _serve_extras(summary: dict) -> dict:
    """KPI extras merged into a serve bench entry (ms for readability)."""
    return {
        "throughput_rps": round(float(summary.get("throughput_rps", 0.0)), 1),
        "latency_p50_ms": round(float(summary.get("latency_p50_s", 0.0)) * 1e3, 4),
        "latency_p95_ms": round(float(summary.get("latency_p95_s", 0.0)) * 1e3, 4),
        "latency_p99_ms": round(float(summary.get("latency_p99_s", 0.0)) * 1e3, 4),
        "requests": int(summary.get("requests", 0)),
        "rejected": int(summary.get("rejected", 0)),
        "max_queue_depth": int(summary.get("max_queue_depth", 0)),
    }


def _bench_serve(results, rounds, commit, quick, jobs, notes) -> None:
    """Allocation-as-a-service benches: replay capacity, paced load, shedding.

    - ``serve_replay_cold`` / ``serve_replay_warm`` — unpaced trace drains
      (fresh vs primed :class:`~repro.tatim.cache.AllocationCache`); their
      ``mean_s`` is the gated service-capacity number, with throughput and
      latency percentiles recorded as informational extras.
    - ``serve_sustained_load_warm`` — wall-clock paced open-loop run at the
      offered rate; ``mean_s`` pins to the trace duration by construction,
      so the KPIs in the extras (p50/p95/p99, throughput, rejections) are
      the payload.
    - ``serve_saturation_shed`` — a deliberately slow solver against a tiny
      bounded queue; validates shed-don't-drown (nonzero rejections, queue
      depth capped) under overload.

    A ``jobs=1`` vs ``jobs=N`` replay identity check guards the
    dispatcher's determinism contract before anything is recorded.
    """
    import dataclasses
    import time as _time

    from repro.serve import Dispatcher, ServeConfig, generate_trace
    from repro.serve import dispatcher as dispatcher_module

    config = ServeConfig(
        arrival_rate_hz=2000.0,
        duration_s=1.0 if quick else 3.0,
        queue_depth=512,
        batch_max=64,
        jobs=jobs,
        seed=0,
    )
    geometry, requests = generate_trace(config)

    if jobs > 1:
        with Dispatcher(geometry, config) as parallel_dispatcher:
            parallel_ids = parallel_dispatcher.replay(requests).identities()
        with Dispatcher(geometry, dataclasses.replace(config, jobs=1)) as serial_dispatcher:
            serial_ids = serial_dispatcher.replay(requests).identities()
        if parallel_ids != serial_ids:
            raise AssertionError("dispatcher at jobs=N diverged from jobs=1")
        notes.append(
            f"dispatcher determinism: jobs=1 == jobs={jobs} over "
            f"{len(requests)} requests"
        )

    def replay_cold():
        with Dispatcher(geometry, config) as dispatcher:
            return dispatcher.replay(requests)

    mean_s, std_s, report = _timed(replay_cold, rounds)
    record(
        results, "serve_replay_cold", mean_s, rounds, std_s=std_s, commit=commit,
        extra=_serve_extras(report.summary),
    )

    with Dispatcher(geometry, config) as dispatcher:
        dispatcher.replay(requests)  # prime the cache, untimed
        mean_s, std_s, report = _timed(lambda: dispatcher.replay(requests), rounds)
        record(
            results, "serve_replay_warm", mean_s, rounds, std_s=std_s, commit=commit,
            extra=_serve_extras(report.summary),
        )
        mean_s, std_s, report = _timed(lambda: dispatcher.run(requests), rounds)
        record(
            results,
            "serve_sustained_load_warm",
            mean_s,
            rounds,
            std_s=std_s,
            commit=commit,
            extra=_serve_extras(report.summary),
        )
        notes.append(
            f"sustained load: {report.throughput_rps:.0f} req/s served at "
            f"{config.arrival_rate_hz:.0f}/s offered, "
            f"p99 {report.summary.get('latency_p99_s', 0.0) * 1e3:.2f} ms, "
            f"{report.rejected} rejected"
        )

    # Saturation: a solver slow enough that the offered rate is far beyond
    # capacity, a queue too small to absorb it, and no cache to hide behind.
    # jobs=1 keeps the registered solver visible (the registry is extended
    # in this process only; persistent workers have their own copy).
    slow_s = 0.005

    def bench_slow_solver(problem):
        _time.sleep(slow_s)
        return dispatcher_module.SOLVERS["density_greedy"](problem)

    saturation_config = ServeConfig(
        arrival_rate_hz=2000.0,
        duration_s=0.5 if quick else 1.0,
        queue_depth=16,
        batch_max=8,
        jobs=1,
        solver="bench_slow",
        cache=False,
        drift_sigma=1e-6,
        seed=1,
    )
    dispatcher_module.SOLVERS["bench_slow"] = bench_slow_solver
    try:
        sat_geometry, sat_requests = generate_trace(saturation_config)
        with Dispatcher(sat_geometry, saturation_config) as dispatcher:
            mean_s, std_s, report = _timed(lambda: dispatcher.run(sat_requests), rounds)
    finally:
        del dispatcher_module.SOLVERS["bench_slow"]
    if report.rejected == 0:
        raise AssertionError("saturation bench shed nothing; overload not reached")
    max_depth = int(report.summary.get("max_queue_depth", 0))
    if max_depth > saturation_config.queue_depth:
        raise AssertionError(
            f"queue depth {max_depth} exceeded bound {saturation_config.queue_depth}"
        )
    record(
        results,
        "serve_saturation_shed",
        mean_s,
        rounds,
        std_s=std_s,
        commit=commit,
        extra=_serve_extras(report.summary),
    )
    notes.append(
        f"saturation: {report.rejected}/{len(sat_requests)} shed, "
        f"max queue depth {max_depth} (bound {saturation_config.queue_depth})"
    )
