"""Targeted crashes: coordinator-only storms and deterministic
mid-propagation losses."""

import pytest

from repro.cluster import Cluster
from repro.repair import divergent_base_keys
from repro.scenarios import CrashStorm, Scenario, lose_propagations

from tests.repair.conftest import VIEW, build, populate, run_for
from tests.views.conftest import make_config


def test_targets_validated():
    scenario = Scenario(config=make_config())
    scenario.build()
    with pytest.raises(Exception):
        CrashStorm(targets=[99]).start(scenario)


def test_targets_restrict_victims():
    scenario = Scenario(config=make_config())
    cluster = scenario.build()
    storm = CrashStorm(targets=[2])
    storm.start(scenario)
    down_seen = set()

    def watch():
        while cluster.env.now < 600.0:
            down_seen.update(node.node_id for node in cluster.nodes
                             if node.is_down)
            yield cluster.env.timeout(1.0)

    cluster.env.process(watch())
    run_for(cluster, 600.0)
    storm.stop()
    cluster.run_until_idle()
    assert storm.injections >= 2
    assert down_seen == {2}


def test_auto_false_injects_nothing_spontaneously():
    """An armed loss deals nothing until a propagation runs."""
    cluster = build()
    loss = lose_propagations(cluster, 1, 10.0)
    run_for(cluster, 500.0)
    assert loss.injections == 0
    assert all(not node.is_down for node in cluster.nodes)


def test_crash_during_propagation_requires_view_manager():
    cluster = Cluster(make_config())
    cluster.create_table("T")
    with pytest.raises(ValueError):
        lose_propagations(cluster, 1, 10.0)


def test_crash_count_validated():
    cluster = build()
    with pytest.raises(ValueError):
        lose_propagations(cluster, 0, 10.0)


def test_crash_loses_exactly_count_propagations():
    cluster = build()
    populate(cluster, 6)
    loss = lose_propagations(cluster, 2, 10.0)
    client = cluster.sync_client()
    for i in range(5):
        # Rotate coordinators so the workload survives the crashes.
        handle = cluster.sync_client(coordinator_id=(i + 1) % 4)
        handle.put("T", i, {"vk": "new"}, w=2, timestamp=100 + i)
        run_for(cluster, 60.0)
    loss.stop()
    cluster.run_until_idle()
    manager = cluster.view_manager
    assert manager.lost_propagations == 2
    assert loss.injections == 2
    assert loss.holds("crash") == 0
    assert all(not node.is_down for node in cluster.nodes)
    # Exactly the two crashed propagations diverged; the rest landed.
    assert len(divergent_base_keys(cluster, VIEW)) == 2
    del client


def test_crash_filters_by_view_and_key():
    cluster = build()
    populate(cluster, 4)
    loss = lose_propagations(cluster, 1, 10.0, view_name="V", base_key=3)
    client = cluster.sync_client(coordinator_id=1)
    client.put("T", 0, {"vk": "safe"}, w=2, timestamp=100)
    run_for(cluster, 60.0)
    assert cluster.view_manager.lost_propagations == 0  # filter skipped it
    client.put("T", 3, {"vk": "doomed"}, w=2, timestamp=101)
    run_for(cluster, 60.0)
    loss.stop()
    cluster.run_until_idle()
    assert cluster.view_manager.lost_propagations == 1
    assert divergent_base_keys(cluster, VIEW) == [3]


def test_crash_hook_disarms_after_stop():
    cluster = build()
    populate(cluster, 4)
    loss = lose_propagations(cluster, 5, 10.0)
    loss.stop()
    assert cluster.view_manager._crash_hooks == []
    client = cluster.sync_client(coordinator_id=1)
    client.put("T", 1, {"vk": "fine"}, w=2, timestamp=100)
    cluster.run_until_idle()
    assert cluster.view_manager.lost_propagations == 0
    assert divergent_base_keys(cluster, VIEW) == []


def test_crashed_propagation_does_not_error_the_simulation():
    """A lost propagation must fail quietly (counted, traced) — not
    escalate into a simulation-level ProcessError."""
    cluster = build()
    populate(cluster, 2)
    loss = lose_propagations(cluster, 1, 10.0)
    client = cluster.sync_client(coordinator_id=1)
    client.put("T", 0, {"vk": "x"}, w=2, timestamp=100)
    run_for(cluster, 100.0)
    loss.stop()
    cluster.run_until_idle()  # would raise if the failure escaped
    assert cluster.view_manager.lost_propagations == 1
