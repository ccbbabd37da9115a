"""Tests of the benchmark itself: inputs, metric names, tracer hygiene."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import config, worker
from perfbench.layers import TARGETS
from perfbench.stats import tail
from perfbench.tracer import LayerTracer, Target
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


# -- inputs -------------------------------------------------------------
@pytest.mark.parametrize("name", config.WORKLOADS)
def test_same_seed_generates_identical_inputs(name):
    workload = WORKLOADS[name]
    first = workload.fingerprint(workload.inputs(3, 1.0))
    again = workload.fingerprint(workload.inputs(3, 1.0))
    other = workload.fingerprint(workload.inputs(4, 1.0))
    assert _same(first, again)
    assert not _same(first, other)


# -- timed phase --------------------------------------------------------
def test_paced_ladder_runs_only_for_the_details():
    workload = WORKLOADS["serve_drift"]
    state = workload.setup(workload.inputs(0, 1.0))
    timed = workload.run(state, 0.1)
    assert "rungs" not in timed.data and not timed.errors
    detailed = workload.run(state, 0.1, details=True)
    assert [rung.rate for rung in detailed.data["rungs"]] == list(workload.ladder)
    assert not detailed.errors


def test_fleet_run_takes_the_simulator_out_of_the_state():
    workload = WORKLOADS["fleet"]
    state = workload.setup(workload.inputs(0, 1.0))
    run = workload.run(state, 0.01)
    assert state == [workload.inputs(0, 1.0)]
    assert run.plan == {"runs": config.MIN_REPEATS} and not run.errors


# -- metric names -------------------------------------------------------
def test_spec_declares_exactly_the_computed_metrics():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(worker.END_TO_END)
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert len(declared) == len(set(declared))
    assert sorted(declared) == sorted(worker.per_layer_names())
    assert [w["name"] for w in SPEC["workloads"]] == list(config.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_equal_the_spec(trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_shift",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# -- tracer -------------------------------------------------------------
def _leaf(x):
    time.sleep(0.002)
    return x


def _outer(x, depth=0):
    time.sleep(0.002)
    if depth < 1:
        _outer(x, depth + 1)  # recursion: busy time must count once
    return _leaf(x)


def _bindings() -> dict:
    """Every module global, registry entry and class attribute the targets touch."""
    import importlib

    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(LayerTracer.MODULE_PREFIXES):
            continue
        for key, value in list(vars(module).items()):
            seen[(name, key)] = value
            if isinstance(value, dict) and key.isupper():
                for entry, member in list(value.items()):
                    seen[(name, key, entry)] = member
    for target in TARGETS:
        module_name, _, qualname = target.path.partition(":")
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(importlib.import_module(module_name), owner_name)
            seen[(module_name, owner_name, attr)] = owner.__dict__[attr]
    return seen


def test_every_wrapped_function_is_restored():
    import importlib

    import repro
    from repro.serve.dispatcher import SOLVERS

    for target in TARGETS:
        importlib.import_module(target.path.partition(":")[0])
    before = _bindings()
    tracer = LayerTracer(TARGETS)
    with tracer:
        key = ("repro.serve.dispatcher", "SOLVERS", "density_greedy")
        assert SOLVERS["density_greedy"] is not before[key]
        problem = repro.random_instance(12, 3, seed=0)
        SOLVERS["density_greedy"](problem.scaled(importance=problem.importance))
    after = _bindings()
    assert tracer.unrestored() == []
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
    assert tracer.stats["tatim.solve"].calls == 1
    assert tracer.stats["tatim.scaled"].calls == 1


def test_tracer_self_times_cover_the_wall_time():
    here = __name__
    tracer = LayerTracer([
        Target("outer", f"{here}:_outer"),
        Target("leaf", f"{here}:_leaf", lambda args, result: 1),
    ])
    with tracer:
        start = time.perf_counter()
        _outer(1)
        wall = time.perf_counter() - start
    outer, leaf = tracer.stats["outer"], tracer.stats["leaf"]
    assert outer.calls == 2 and leaf.calls == 2 and leaf.units == 2
    assert outer.busy_s == pytest.approx(wall, rel=0.05)
    assert tracer.total_self_s() == pytest.approx(outer.busy_s, rel=1e-9)
    assert leaf.self_s == pytest.approx(tracer.edges[("outer", "leaf")], rel=1e-9)
    assert _outer.__module__ == here and not hasattr(_outer, "__perfbench_wrapped__")


# -- statistics ---------------------------------------------------------
def test_tail_keeps_ten_samples_beyond():
    values = list(range(1000))
    assert tail(values, 99.9)[0] == 99.0
    assert tail(values, 90.0)[0] == 90.0
    assert tail(list(range(60)), 99.0)[0] == 80.0
    assert tail(list(range(5)), 99.0)[0] == 50.0
