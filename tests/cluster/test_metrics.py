"""Tests for cluster utilization snapshots and tracking."""

import pytest

from repro.cluster import Cluster, ClusterSnapshot, UtilizationTracker
from repro.views import ViewDefinition
from repro.workloads import UniformKeys, read_op, run_closed_loop, write_op

from tests.cluster.conftest import make_config


def build_cluster():
    cluster = Cluster(make_config())
    cluster.create_table("T")
    client = cluster.sync_client()
    for i in range(30):
        client.put("T", i, {"payload": i}, w=3)
    client.settle()
    return cluster


def test_snapshot_captures_counters():
    cluster = build_cluster()
    snapshot = ClusterSnapshot.capture(cluster)
    assert snapshot.at == cluster.env.now
    assert len(snapshot.nodes) == 4
    assert snapshot.messages_sent > 0
    assert all(node.busy_time > 0 for node in snapshot.nodes)
    # No view, so no propagation pending (the snapshot counted 0).
    assert cluster.view_manager is None


def test_tracker_requires_start():
    cluster = build_cluster()
    tracker = UtilizationTracker(cluster)
    with pytest.raises(RuntimeError):
        tracker.stop()


def test_utilization_rises_with_load():
    cluster = build_cluster()
    tracker = UtilizationTracker(cluster)

    tracker.start()
    run_closed_loop(cluster, read_op("T", UniformKeys(30), ["payload"]),
                    clients=1, duration=100.0)
    light = tracker.stop()

    tracker.start()
    run_closed_loop(cluster, read_op("T", UniformKeys(30), ["payload"]),
                    clients=8, duration=100.0)
    heavy = tracker.stop()

    assert 0.0 < light.mean_utilization() < heavy.mean_utilization() <= 1.0
    assert heavy.messages > light.messages
    # run_closed_loop lets in-flight operations finish past the nominal
    # stop time, so the window slightly exceeds the run duration.
    assert 100.0 <= heavy.window < 120.0


def test_idle_window_zero_utilization():
    cluster = build_cluster()
    tracker = UtilizationTracker(cluster)
    tracker.start()
    cluster.run(until=cluster.env.now + 50.0)
    report = tracker.stop()
    assert report.mean_utilization() == 0.0
    assert report.messages == 0


def test_propagation_counter_in_report():
    cluster = Cluster(make_config())
    cluster.create_table("T")
    cluster.create_view(ViewDefinition("V", "T", "vk"))
    tracker = UtilizationTracker(cluster)
    tracker.start()
    run_closed_loop(cluster, write_op("T", UniformKeys(20), "vk"),
                    clients=2, duration=100.0)
    cluster.run_until_idle()
    report = tracker.stop()
    assert report.propagations > 0
    assert "propagations" in report.describe()


def test_describe_format():
    cluster = build_cluster()
    tracker = UtilizationTracker(cluster)
    tracker.start()
    cluster.run(until=cluster.env.now + 10.0)
    text = tracker.stop().describe()
    assert "window" in text and "cpu" in text
