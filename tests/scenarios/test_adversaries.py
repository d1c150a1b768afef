"""Unit tests for the composable adversaries.

Each adversary must (a) actually inject its fault class during a run,
(b) heal everything it broke on ``stop()``, and (c) be deterministic
under the cluster seed — the properties the scenario matrix and the
fuzzer build on.
"""

import random

import pytest

from repro.scenarios import (
    Adversary,
    BurstArrivals,
    ClockSkew,
    CrashLoop,
    CrashStorm,
    GrayFailure,
    PartitionStorm,
    Scenario,
    ScenarioWorkload,
    ScheduledFaults,
    ScheduleWorkload,
    default_config,
)
from repro.sim.latency import Fixed

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
    assert adversary.injections >= 1
    assert result.ok, result.violations
    assert_healed(scenario)


def test_gray_failure_slows_and_restores():
    adversary = GrayFailure(cpu_factor=6.0, link_factor=6.0)
    scenario, result = run_with([adversary])
    assert adversary.injections >= 1
    assert result.ok, result.violations
    assert_healed(scenario)


def test_clock_skew_inverts_timestamps_and_clears():
    adversary = ClockSkew(max_skew_ms=2000.0)
    scenario, result = run_with([adversary], ops=80)
    assert adversary.injections >= 1
    # Skew actually produced timestamp inversions relative to issue
    # order somewhere in the applied history.
    timestamps = [u.timestamp for u in scenario.workload.applied]
    assert timestamps != sorted(timestamps)
    assert result.ok, result.violations
    assert_healed(scenario)


def test_crash_loop_kills_scrub_coordinator():
    adversary = CrashLoop(victim=0)
    scenario, result = run_with([adversary], ops=80)
    assert adversary.injections >= 1
    assert result.ok, result.violations
    assert_healed(scenario)


def test_crash_storm_kills_and_heals():
    adversary = CrashStorm()
    scenario, result = run_with([adversary], ops=80)
    assert adversary.injections >= 1
    assert adversary.holds("crash") == 0
    assert result.ok, result.violations
    assert_healed(scenario)


def test_burst_arrivals_scales_and_restores():
    adversary = BurstArrivals(factor=25.0)
    scenario, result = run_with([adversary], ops=80, mean_gap=4.0)
    assert adversary.injections >= 1
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
        kills.add(adversary.injections)
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
    # A storm that could crash nothing fails where it is built.
    with pytest.raises(ValueError):
        CrashStorm(max_down=0)
    with pytest.raises(ValueError):
        CrashStorm(targets=[])


def test_a_skipped_crash_draws_no_downtime():
    """A crash loop draws a downtime only for a crash it deals: while its
    victim is held down by someone else, each cycle costs the stream one
    uptime draw and nothing more, which keeps every later draw in place."""
    scenario = Scenario("unit", config=default_config(seed=3))
    cluster = scenario.build()
    loop = CrashLoop(victim=1)
    cluster.fail_node(1)
    loop.start(scenario)
    stream = loop.rng(scenario)
    replica = random.Random()
    replica.setstate(stream.getstate())
    cluster.run(until=85.0)  # one uptime (30-80 ms) elapsed, the next drawn
    loop.stop()
    assert loop.injections == 0
    for _ in range(2):
        loop.pause.sample(replica)
    assert stream.random() == replica.random()


# A fault of every kind, each held far past the end of three Puts.
HELD = 10_000.0
EVERY_KIND = [
    {"t": 0.5, "kind": "crash", "node": 3, "down": HELD},
    {"t": 0.5, "kind": "partition", "a": 0, "b": 1, "duration": HELD},
    {"t": 0.5, "kind": "slow", "node": 2, "cpu": 4.0, "link": 4.0,
     "duration": HELD},
    # Armed for more losses than the Puts can supply: still armed at stop.
    {"t": 0.5, "kind": "lose", "count": 50, "down": HELD},
]
THREE_PUTS = [{"t": 1.0 + i, "kind": "put", "key": f"k{i}",
               "cells": {"vk": "g0", "m": f"m{i}"}, "ts": 100 + i}
              for i in range(3)]


def replay_faults(faults):
    adversary = ScheduledFaults(faults)
    scenario = Scenario("unit", config=default_config(seed=5),
                        workload=ScheduleWorkload(THREE_PUTS),
                        adversaries=[adversary])
    return adversary, scenario, scenario.run()


def test_scheduled_faults_heal_every_kind_on_stop():
    adversary, scenario, result = replay_faults(EVERY_KIND)
    # Crash, cut and slow, plus at least one coordinator the loss took.
    assert adversary.injections >= 4
    assert scenario.cluster.view_manager.lost_propagations >= 1
    assert adversary.holds("crash") == adversary.holds("cut") == 0
    assert adversary.holds("slow") == 0
    assert result.ok, result.violations
    assert_healed(scenario)


def test_stop_disarms_a_loss_whose_count_was_never_reached():
    """A stopped injector leaves no hook behind for every later
    propagation to consult."""
    _adversary, scenario, _result = replay_faults(EVERY_KIND[3:])
    manager = scenario.cluster.view_manager
    assert 1 <= manager.lost_propagations < 50
    assert manager._crash_hooks == []


class Ticker(Adversary):
    """A paced adversary that only notes when it strikes."""

    name = "ticker"
    pause = Fixed(10.0)

    def __init__(self):
        super().__init__()
        self.strikes = []

    def _strike(self, scenario, rng):
        self.strikes.append(scenario.cluster.env.now)
        return None


def watched(scenario):
    """Build the scenario's cluster and log every event popped from now."""
    popped = []
    scenario.build().env.set_event_watcher(popped.append)
    return popped


def test_an_adversary_with_no_pause_starts_no_process():
    scenario = Scenario("unit", config=default_config(seed=2))
    popped = watched(scenario)
    Adversary().start(scenario)
    scenario.cluster.env.run()
    assert popped == []
    ticker = Ticker()
    ticker.start(scenario)
    scenario.cluster.env.run(until=1.0)
    ticker.stop()
    assert len(popped) == 1  # the loop's start


def test_stop_during_a_pause_ends_the_loop_with_no_further_strike():
    scenario = Scenario("unit", config=default_config(seed=2))
    env = scenario.build().env
    ticker = Ticker()
    ticker.start(scenario)
    env.run(until=25.0)
    assert ticker.strikes == [10.0, 20.0]
    ticker.stop()
    env.run()  # drains: the loop wakes at 30 ms and returns
    assert ticker.strikes == [10.0, 20.0]
    assert env.now == 30.0


def test_a_strike_process_is_waited_out_before_the_next_pause():
    """A crash loop's next uptime starts when its victim is revived, so
    crashes come one uptime plus one downtime apart."""
    scenario = Scenario("unit", config=default_config(seed=2))
    env = scenario.build().env
    loop = CrashLoop(victim=1, uptime=Fixed(10.0), downtime=Fixed(7.0))
    loop.start(scenario)
    down = []
    for t in (9.0, 11.0, 18.0, 26.0, 28.0, 35.0):
        env.run(until=t)
        down.append(scenario.cluster.node(1).is_down)
    loop.stop()
    assert down == [False, True, False, False, True, False]
    assert loop.injections == 2
