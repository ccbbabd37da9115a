"""Workload sizes and the fixed judgement constants of the benchmark.

The serve ladders are absolute offered rates, set at 25%, 50% and about
67% of the unpaced capacity that the parent commit of this benchmark
measured (``capacity_rps`` below: rounded medians over the sizing seeds on
a 2-vCPU x86 VM, Python 3.11, numpy 2.4, BLAS pinned to one thread). They
stay fixed so that a later change is judged at the same offered load. The
top rate sits below the 80% first planned: the paced loop costs more per
request than the unpaced drain, and at 80% host stalls made the parent
shed requests.
"""

from __future__ import annotations

WORKLOADS = ("pipeline", "serve_drift", "serve_shift", "fleet")

#: Seeds 0-49 sized the workloads; this one was never run while sizing, so
#: a later claim can be re-checked on it.
HELD_OUT_SEED = 7919

#: Set-up runs at least this many times and until SETUP_BUDGET_S is spent;
#: setup_s is the median.
SETUP_REPS = 3
SETUP_BUDGET_S = 2.0

# -- pipeline ------------------------------------------------------------
#: plan() tail percentile; the timed loop runs at least enough epochs to
#: leave ten samples beyond it.
PIPELINE_TAIL_Q = 80.0

# -- serve ---------------------------------------------------------------
SERVE_GEOMETRY = dict(n_tasks=50, n_processors=10, solver="density_greedy", jobs=1)
#: The service answers for one recurring task/processor geometry, fixed
#: across workload seeds; the seed draws the traffic and the importance.
#: Solve cost depends on the geometry, so a per-seed geometry would spread
#: capacity by tens of percent from one seed to the next.
SERVE_GEOMETRY_SEED = 2019
SERVE = {
    # name: (sampler, redraw_every, capacity_rps, ladder of offered req/s)
    "serve_drift": ("poisson", 50, 18000.0, (4500.0, 9000.0, 12000.0)),
    "serve_shift": ("gauss_poisson", 1, 1500.0, (375.0, 750.0, 1020.0)),
}
#: Latency limit on the tail percentile: the stock default_serve_slos p99.
SLO_P99_S = 0.25
SLO_TAIL_Q = 99.0
#: Tail percentile of the lowest rate's paced latency, reported per layer.
#: No tail is gated: on a shared 2-vCPU VM a paced p99 moves up to 3x
#: between runs (host stalls of a few ms land in it) and even p95 spread
#: 35-45% across seeds, beyond any bound the gate allows.
SERVE_TAIL_Q = 95.0
#: Admitted share a ladder rate must reach to count as sustained.
SLO_ADMITTED = 0.99
#: Largest drain overrun past the last due time that still counts as a
#: backlog that does not grow.
SLO_MAX_OVERRUN_S = 0.25
#: The unpaced phase runs in rounds of one capacity drain (the first
#: capacity_rps * DRAIN_S requests of the middle rate's trace) and
#: capacity_rps * CLOSED_S closed-loop calls of Dispatcher.serve. Short
#: alternating rounds spread both gated serve metrics over the whole phase.
#: It fills --seconds, except in the untraced pass of --trace 1, which also
#: runs the ladder: there it takes UNPACED_SHARE of --seconds.
UNPACED_SHARE = 0.7
DRAIN_S = 0.25
CLOSED_S = 0.1
#: Share of --seconds each ladder rate's paced run lasts, lowest rate first.
#: The ladder feeds per-layer metrics only.
RUNG_SHARES = (0.15, 0.075, 0.075)
#: Responses per report compared against a direct solve.
SERVE_SAMPLE = 24

# -- fleet ---------------------------------------------------------------
FLEET = dict(
    n_nodes=100_000,
    n_regions=800,
    arrival_rate_hz=3000.0,
    duration_s=20.0,
    churn_rate_hz=300.0,
    recovery_s=5.0,
)

#: Timed units every workload runs at least, however short --seconds is.
MIN_REPEATS = 3
#: Largest allowed gap between the traced wall time and the sum of the
#: per-layer self times, as a share of the wall time.
COVERAGE_TOLERANCE = 0.05
