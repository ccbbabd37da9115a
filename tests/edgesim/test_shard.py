"""Sharded fleet runner: shards=1 == shards=N bitwise, plus decomposition.

The identity tier is the load-bearing contract: the merged
:class:`FleetResult` (every counter, every percentile, the full streaming
timeseries) must be bit-for-bit independent of how many worker processes
executed the region groups — across seeds, topologies, and churn. The
multiprocess side always runs with ``force=True`` so real workers and the
shared-memory column plane are exercised even on single-core CI boxes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.edgesim.fleet import FleetConfig
from repro.edgesim.network import RegionalNetwork, SwitchedNetwork
from repro.edgesim.shard import (
    fleet_columns,
    plan_groups,
    result_digest,
    run_fleet_sharded,
)
from repro.errors import ConfigurationError

#: Scalar FleetResult fields compared field-by-field in the identity tier.
_SCALAR_FIELDS = (
    "n_nodes", "n_regions", "duration_s", "arrivals", "completed", "dropped",
    "redispatched", "failures", "recoveries", "events", "peak_in_flight",
    "latency_mean_s", "latency_p50_s", "latency_p95_s", "latency_p99_s",
)


def _assert_identical(a, b) -> None:
    for name in _SCALAR_FIELDS:
        assert getattr(a, name) == getattr(b, name), name
    assert a.latency_state == b.latency_state
    assert a.timeseries.to_jsonl() == b.timeseries.to_jsonl()
    assert result_digest(a) == result_digest(b)


TOPOLOGIES = {
    "default": dict(n_regions=16),
    "wide-slow-backhaul": dict(
        n_regions=24,
        network=RegionalNetwork(
            n_regions=24,
            backhaul=SwitchedNetwork(bandwidth_mbps=1000.0, latency_s=0.05),
        ),
    ),
}


def _config(seed: int, topology: str, churn: float) -> FleetConfig:
    kwargs = dict(TOPOLOGIES[topology])
    return FleetConfig(
        n_nodes=1200,
        duration_s=10.0,
        arrival_rate_hz=40.0,
        churn_rate_hz=churn,
        seed=seed,
        **kwargs,
    )


class TestShardIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 23])
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("churn", [0.0, 1.0])
    def test_shards_1_equals_shards_n(self, seed, topology, churn):
        config = _config(seed, topology, churn)
        single = run_fleet_sharded(config, shards=1)
        multi = run_fleet_sharded(config, shards=2, force=True)
        assert single.shards == 1
        assert multi.shards == 2
        assert single.groups == multi.groups
        _assert_identical(single.result, multi.result)

    def test_shard_count_beyond_two_is_still_identical(self):
        config = _config(3, "default", 0.5)
        runs = [
            run_fleet_sharded(config, shards=shards, force=shards > 1)
            for shards in (1, 3, 4)
        ]
        for other in runs[1:]:
            _assert_identical(runs[0].result, other.result)

    def test_result_depends_on_seed(self):
        a = run_fleet_sharded(_config(0, "default", 0.0), shards=1)
        b = run_fleet_sharded(_config(1, "default", 0.0), shards=1)
        assert result_digest(a.result) != result_digest(b.result)

    def test_group_count_fixes_the_decomposition(self):
        # groups is part of the result's definition: changing it changes
        # the sampling decomposition, so it must never default from the
        # shard/CPU count.
        config = _config(0, "default", 0.0)
        a = run_fleet_sharded(config, shards=1, groups=4)
        b = run_fleet_sharded(config, shards=2, groups=4, force=True)
        _assert_identical(a.result, b.result)


class TestPlanGroups:
    def test_partition_covers_regions_and_nodes_exactly(self):
        config = FleetConfig(n_nodes=1003, n_regions=13, seed=5)
        specs = plan_groups(config, groups=4)
        assert [s.index for s in specs] == list(range(4))
        assert sum(s.config.n_regions for s in specs) == 13
        assert sum(s.config.n_nodes for s in specs) == 1003
        # Contiguous region ranges, in order.
        first = 0
        for spec in specs:
            assert spec.first_region == first
            first += spec.config.n_regions

    def test_rates_thin_to_the_fleet_totals(self):
        config = FleetConfig(
            n_nodes=1000, n_regions=10, arrival_rate_hz=50.0, churn_rate_hz=3.0
        )
        specs = plan_groups(config, groups=3)
        assert sum(s.config.arrival_rate_hz for s in specs) == pytest.approx(50.0)
        assert sum(s.config.churn_rate_hz for s in specs) == pytest.approx(3.0)

    def test_group_seeds_are_distinct_and_deterministic(self):
        config = FleetConfig(n_nodes=800, n_regions=8, seed=9)
        seeds = [s.config.seed for s in plan_groups(config, groups=8)]
        assert len(set(seeds)) == 8
        assert seeds == [s.config.seed for s in plan_groups(config, groups=8)]

    def test_groups_capped_by_regions(self):
        config = FleetConfig(n_nodes=100, n_regions=3)
        assert len(plan_groups(config, groups=16)) == 3

    def test_invalid_group_count_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_groups(FleetConfig(), groups=0)

    def test_columns_match_the_build_layout(self):
        config = FleetConfig(n_nodes=100, n_regions=7)
        columns = fleet_columns(config)
        np.testing.assert_array_equal(
            columns["region"], np.arange(100, dtype=np.int64) % 7
        )
        assert columns["s_per_bit"].shape == (100,)
        assert columns["s_per_bit"].dtype == np.float64


#: Golden ``result_digest`` values of ``run_fleet_sharded`` (seed 1, 100k
#: nodes, 800 regions) at 1, 4 and 16 region groups. Two configs run 20 s
#: at 3000 arrivals/s with 300 failures/s, one of them bursty. The sparse
#: one leaves event-free gaps longer than its 8-window metrics ring, so it
#: drives the aggregator's fast-forward path. A digest change is a real
#: behaviour change of the sharded engine, never noise.
_PINNED_BASE = dict(n_nodes=100_000, n_regions=800, seed=1)
PINNED_CONFIGS = {
    "churn": FleetConfig(
        duration_s=20.0, arrival_rate_hz=3000.0, churn_rate_hz=300.0, **_PINNED_BASE
    ),
    "gauss_poisson": FleetConfig(
        duration_s=20.0,
        arrival_rate_hz=3000.0,
        churn_rate_hz=300.0,
        sampler="gauss_poisson",
        **_PINNED_BASE,
    ),
    "sparse": FleetConfig(
        duration_s=600.0,
        arrival_rate_hz=0.2,
        window_s=1.0,
        max_windows=8,
        **_PINNED_BASE,
    ),
}
PINNED_DIGESTS = [
    ("churn", 1, "e70fac23b3549592"),
    ("churn", 4, "fa0b4aeb8af7d06a"),
    ("churn", 16, "347a8e9a1c185ec0"),
    ("gauss_poisson", 1, "37864ae4c7caa2db"),
    ("gauss_poisson", 4, "f293b2126ba159c3"),
    ("gauss_poisson", 16, "0e7410f800f69a94"),
    ("sparse", 1, "9a086dd12fbd79d7"),
    ("sparse", 4, "912493f87fa8ebe7"),
    ("sparse", 16, "b30fbf69a566b904"),
]


@pytest.mark.parametrize(
    "name, groups, digest", PINNED_DIGESTS, ids=[d for *_, d in PINNED_DIGESTS]
)
def test_pinned_digest(name, groups, digest):
    run = run_fleet_sharded(PINNED_CONFIGS[name], shards=1, groups=groups)
    assert result_digest(run.result) == digest
    if name == "sparse":
        assert run.result.timeseries.dropped > 0  # the fast-forward ran
