"""Unit tests for the composable adversaries.

Each adversary must (a) actually inject its fault class during a run,
(b) heal everything it broke on ``stop()``, and (c) be deterministic
under the cluster seed — the properties the scenario matrix and the
fuzzer build on.
"""

import pytest

from repro.scenarios import (
    BurstArrivals,
    ClockSkew,
    CrashLoop,
    CrashStorm,
    GrayFailure,
    PartitionStorm,
    Scenario,
    ScenarioWorkload,
    default_config,
)

pytestmark = pytest.mark.scenario


def run_with(adversaries, *, seed=11, ops=50, **workload):
    scenario = Scenario(
        "unit",
        config=default_config(seed=seed),
        workload=ScenarioWorkload(ops=ops, **workload),
        adversaries=adversaries,
    )
    return scenario, scenario.run()


def assert_healed(scenario):
    cluster = scenario.cluster
    assert all(not node.is_down for node in cluster.nodes)
    assert cluster.network.active_partitions() == []
    assert all(cluster.network.slowdown_of(node.node_id) == 1.0
               for node in cluster.nodes)
    assert all(node.cpu_slowdown == 1.0 for node in cluster.nodes)
    assert all(cluster.clock_skew_of(cid) == 0.0
               for cid in scenario.client_ids)
    # The runner never had to clean up after the adversary itself.
    assert scenario.unhealed == []


def test_partition_storm_cuts_and_heals():
    adversary = PartitionStorm()
    scenario, result = run_with([adversary])
    assert adversary.cuts_made >= 1
    assert result.ok, result.violations
    assert_healed(scenario)


def test_gray_failure_slows_and_restores():
    adversary = GrayFailure(cpu_factor=6.0, link_factor=6.0)
    scenario, result = run_with([adversary])
    assert adversary.slowdowns_injected >= 1
    assert result.ok, result.violations
    assert_healed(scenario)


def test_clock_skew_inverts_timestamps_and_clears():
    adversary = ClockSkew(max_skew_ms=2000.0)
    scenario, result = run_with([adversary], ops=80)
    assert adversary.skews_applied >= 1
    # Skew actually produced timestamp inversions relative to issue
    # order somewhere in the applied history.
    timestamps = [u.timestamp for u in scenario.workload.applied]
    assert timestamps != sorted(timestamps)
    assert result.ok, result.violations
    assert_healed(scenario)


def test_crash_loop_kills_scrub_coordinator():
    adversary = CrashLoop(victim=0)
    scenario, result = run_with([adversary], ops=80)
    assert adversary.kills >= 1
    assert result.ok, result.violations
    assert_healed(scenario)


def test_crash_storm_wraps_chaos_monkey():
    adversary = CrashStorm()
    scenario, result = run_with([adversary], ops=80)
    assert adversary.kills >= 1
    assert adversary.monkey is not None
    assert adversary.monkey.down_nodes == []
    assert result.ok, result.violations
    assert_healed(scenario)


def test_burst_arrivals_scales_and_restores():
    adversary = BurstArrivals(factor=25.0)
    scenario, result = run_with([adversary], ops=80, mean_gap=4.0)
    assert adversary.bursts >= 1
    assert scenario.arrival_scale == 1.0
    assert result.ok, result.violations
    assert_healed(scenario)


def test_adversaries_are_deterministic_under_seed():
    """Same seed, same stack: bit-identical final state digests."""
    digests = set()
    kills = set()
    for _ in range(2):
        adversary = CrashStorm()
        _scenario, result = run_with(
            [adversary, PartitionStorm()], seed=29, ops=40)
        digests.add(result.digest)
        kills.add(adversary.kills)
    assert len(digests) == 1
    assert len(kills) == 1


def test_stacked_adversaries_get_distinct_streams():
    """Two storms of the same type draw from different RNG streams."""
    first, second = PartitionStorm(), PartitionStorm()
    scenario, result = run_with([first, second], ops=40)
    assert first.label != second.label
    assert result.ok, result.violations
    assert_healed(scenario)


def test_adversary_parameter_validation():
    with pytest.raises(ValueError):
        PartitionStorm(max_cuts=0)
    with pytest.raises(ValueError):
        GrayFailure(cpu_factor=0.5)
    with pytest.raises(ValueError):
        ClockSkew(max_skew_ms=-1.0)
    with pytest.raises(ValueError):
        BurstArrivals(factor=1.0)
