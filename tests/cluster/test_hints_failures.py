"""Edge cases for hinted handoff and failure handling."""

import pytest

from repro.cluster import Cluster
from repro.errors import UnavailableError

from tests.cluster.conftest import make_config


def build_cluster(**overrides):
    cluster = Cluster(make_config(**overrides))
    cluster.create_table("T")
    return cluster


def test_hints_park_while_target_down_without_busy_waiting():
    """The replay loop must not keep the event heap alive while nothing
    is deliverable (run_until_idle would otherwise never return)."""
    cluster = build_cluster()
    client = cluster.sync_client()
    down = cluster.replicas_for("T", "k")[0]
    down.mark_down()
    client.put("T", "k", {"a": 1}, w=2)
    assert len(cluster.hints) == 1
    # Must terminate even though the hint is undeliverable.
    cluster.run_until_idle()
    assert len(cluster.hints) == 1
    # Recovery wakes the parked loop.
    cluster.recover_node(down.node_id)
    cluster.run_until_idle()
    assert len(cluster.hints) == 0
    assert down.engine.read("T", "k", ("a",))["a"].value == 1


def test_hints_accumulate_for_multiple_targets():
    cluster = build_cluster()
    replicas = cluster.replicas_for("T", "k")
    # Coordinate from the one replica that stays up.
    client = cluster.sync_client(coordinator_id=replicas[2].node_id)
    replicas[0].mark_down()
    replicas[1].mark_down()
    client.put("T", "k", {"a": 1}, w=1)
    assert len(cluster.hints) == 2
    cluster.recover_node(replicas[0].node_id)
    cluster.run_until_idle()
    assert len(cluster.hints) == 1  # the other target is still down
    cluster.recover_node(replicas[1].node_id)
    cluster.run_until_idle()
    assert len(cluster.hints) == 0
    for replica in replicas:
        assert replica.engine.read("T", "k", ("a",))["a"].value == 1


def test_hint_held_by_down_holder_waits():
    """A hint whose holder is down cannot replay until the holder
    recovers too."""
    cluster = build_cluster()
    client = cluster.sync_client(coordinator_id=0)
    replicas = cluster.replicas_for("T", "k")
    target = next(r for r in replicas if r.node_id != 0)
    target.mark_down()
    client.put("T", "k", {"a": "v"}, w=2)
    assert len(cluster.hints) == 1
    # Now the holder (coordinator 0) also fails.
    cluster.fail_node(0)
    cluster.recover_node(target.node_id)
    cluster.run_until_idle()
    assert len(cluster.hints) == 1  # holder still down
    cluster.recover_node(0)
    cluster.run_until_idle()
    assert len(cluster.hints) == 0
    assert target.engine.read("T", "k", ("a",))["a"].value == "v"


def test_a_write_refused_as_unavailable_parks_no_hint():
    """The alive replicas are counted before any hint is parked: a Put
    that cannot reach W of them fails and leaves nothing to replay."""
    cluster = build_cluster()
    replicas = cluster.replicas_for("T", "k")
    (outsider,) = [node for node in cluster.nodes if node not in replicas]
    client = cluster.sync_client(coordinator_id=outsider.node_id)
    replicas[0].mark_down()
    replicas[1].mark_down()
    with pytest.raises(UnavailableError):
        client.put("T", "k", {"a": 1}, w=2)
    assert len(cluster.hints) == 0
    client.put("T", "k", {"a": 1}, w=1)
    assert len(cluster.hints) == 2


def test_reads_fail_cleanly_when_all_replicas_down():
    cluster = build_cluster()
    client = cluster.sync_client(coordinator_id=0)
    client.put("T", "k", {"a": 1}, w=3)
    replicas = cluster.replicas_for("T", "k")
    for replica in replicas:
        replica.mark_down()
    if not cluster.node(0).is_down:
        with pytest.raises(UnavailableError):
            client.get("T", "k", ["a"])
    for replica in replicas:
        cluster.recover_node(replica.node_id)
    assert client.get("T", "k", ["a"], r=3)["a"][0] == 1


def test_index_read_skips_down_nodes():
    """Scatter-gather index reads only wait for alive nodes, so results
    may be partial during an outage (eventual consistency in action)."""
    cluster = build_cluster()
    cluster.create_index("T", "sec")
    client = cluster.sync_client(coordinator_id=0)
    for i in range(8):
        client.put("T", i, {"sec": "x"}, w=3)
    down = cluster.nodes[1]
    down.mark_down()
    found = client.get_by_index("T", "sec", "x", ["sec"])
    # All rows are replicated 3 ways across 4 nodes, so each row is
    # still present on at least 2 alive nodes: no data is lost.
    assert sorted(found) == list(range(8))
    cluster.recover_node(down.node_id)


def test_repeated_fail_recover_cycles_converge():
    cluster = build_cluster()
    client = cluster.sync_client(coordinator_id=0)
    value = 0
    for cycle in range(3):
        victim = cluster.nodes[(cycle % 3) + 1]
        victim.mark_down()
        value += 1
        client.put("T", "k", {"a": value}, w=2)
        cluster.recover_node(victim.node_id)
        cluster.run_until_idle()
    for replica in cluster.replicas_for("T", "k"):
        assert replica.engine.read("T", "k", ("a",))["a"].value == value
