"""Run one workload in this process and print its result.

Started by ``perfbench/run.py`` in a fresh interpreter, so that the
process peak RSS is this workload's alone. With ``--trace 0`` it sets up
the workload several times (``setup_s`` is their median), runs the timed
phase untraced and prints the end-to-end metrics; their times are scaled to
the nominal host speed of :mod:`perfbench.host`. With ``--trace 1`` it runs
set-up plus the timed phase once untraced (with the work only the details
need, such as the paced serve ladder), then the same timed work again with
the layer wrappers installed, and prints the per-layer metrics.
Either way the output checks run, and the last line of standard output
is the JSON result; the exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.telemetry import current_run_trace, telemetry_enabled

from perfbench import config
from perfbench.host import HostSpeed
from perfbench.layers import TARGETS, layer_metrics
from perfbench.stats import med
from perfbench.tracer import LayerTracer
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = ("setup_s", "peak_mib", "throughput_per_s", "latency_ms_p50")
#: Per-layer metrics computed here rather than by a workload or the tracer.
TRACE_NAMES = ("trace.overhead", "trace.coverage", "serve.solves_per_request", "host.ref_ms")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def per_layer_names() -> list[str]:
    """Every per-layer metric the traced run produces, on any workload."""
    names = list(layer_metrics(LayerTracer(())))
    for workload in WORKLOADS.values():
        names.extend(workload.detail_names)
    names.extend(TRACE_NAMES)
    return list(dict.fromkeys(names))


def stamp() -> dict:
    """The load shape and code version every result is recorded with."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = probe.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def settle() -> None:
    """Move everything set-up made out of the collector's reach.

    The set-up heap (request traces above all) belongs to the load
    generator, not to the program under test; left tracked, every full
    collection during the timed phase would scan it and stall the paced
    serve runs for tens of milliseconds.
    """
    gc.collect()
    gc.freeze()


def untraced(workload, inputs, seconds: float) -> tuple[dict, object, dict]:
    setup_s: list[float] = []
    spent = 0.0
    state = None
    speed = HostSpeed()
    while len(setup_s) < config.SETUP_REPS or spent < config.SETUP_BUDGET_S:
        state = None
        gc.collect()
        start = perf_counter()
        state = workload.setup(inputs)
        elapsed = perf_counter() - start
        spent += elapsed
        setup_s.append(elapsed * speed.scale())
    settle()
    run = workload.run(state, seconds)
    setup_s.extend(run.setup_s)
    metrics = workload.end_to_end(run)
    samples = metrics.pop("_samples")
    metrics["setup_s"] = med(setup_s)
    metrics["peak_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes = {"setup_reps": len(setup_s), "latency_samples": samples}
    return metrics, run, notes


def traced(workload, inputs, seconds: float) -> tuple[dict, object, dict]:
    start = perf_counter()
    state = workload.setup(inputs)
    setup_s = perf_counter() - start
    settle()
    baseline = workload.run(state, seconds, details=True)
    untraced_wall = setup_s + baseline.blocks_s
    state = None
    gc.unfreeze()
    gc.collect()

    tracer = LayerTracer(TARGETS)
    with tracer:
        start = perf_counter()
        state = workload.setup(inputs)
        setup_s = perf_counter() - start
        settle()
        run = workload.run(state, seconds, plan=baseline.plan, check=False)
    traced_wall = setup_s + run.blocks_s

    errors = baseline.errors + run.errors
    leftovers = tracer.unrestored()
    if leftovers:
        errors.append(f"wrappers left installed: {leftovers[:3]}")
    coverage = tracer.total_self_s() / traced_wall
    if abs(coverage - 1.0) > config.COVERAGE_TOLERANCE:
        errors.append(f"layer self times cover {coverage:.3f} of the traced wall time")
    if workload.name == "fleet" and run.data["counts"] != baseline.data["counts"]:
        errors.append("fleet results differ between the untraced and the traced pass")
    baseline.errors = errors

    # A layer the workload never reaches reads 0.
    metrics = dict.fromkeys(per_layer_names(), 0.0)
    produced = {**layer_metrics(tracer), **workload.details(baseline)}
    produced["trace.overhead"] = traced_wall / untraced_wall
    produced["trace.coverage"] = coverage
    produced["host.ref_ms"] = baseline.ref_ms
    if workload.name.startswith("serve"):
        produced["serve.solves_per_request"] = produced["tatim.solves"] / run.attempted
    unknown = produced.keys() - metrics.keys()
    if unknown:
        raise KeyError(f"metrics missing from per_layer_names(): {sorted(unknown)}")
    metrics.update(produced)
    notes = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}
    return metrics, baseline, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=config.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = load_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if sorted(units) != sorted(per_layer_names() if args.trace else END_TO_END):
        print("BENCHMARK.json does not declare the metrics this benchmark computes", file=sys.stderr)
        return 2
    if telemetry_enabled() or current_run_trace() is not None:
        print("the package's telemetry must be off for the benchmark", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.seconds)
    measure = traced if args.trace else untraced
    metrics, run, notes = measure(workload, inputs, args.seconds)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(stamp(), sort_keys=True)}")
    print(f"# notes {json.dumps(notes, sort_keys=True)}")
    for name in sorted(units):
        print(f"{name:34s} {metrics[name]:>16.6g} {units[name]}")
    for error in run.errors:
        print(f"CHECK FAILED: {error}")
    result = {
        "correct": not run.errors,
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
