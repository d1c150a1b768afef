"""View maintenance under node failures and degraded conditions."""

import pytest

from repro.cluster import Cluster
from repro.errors import UnavailableError
from repro.views import NULL_VIEW_KEY, ViewDefinition, check_view
from repro.views.invariants import entries_for_base_key

from tests.views.conftest import make_config

VIEW = ViewDefinition("V", "T", "vk", ("m",))


def build(**overrides):
    cluster = Cluster(make_config(**overrides))
    cluster.create_table("T")
    cluster.create_view(VIEW)
    return cluster


def test_propagation_succeeds_with_one_view_replica_down():
    """Majority quorums tolerate one of three replicas failing."""
    cluster = build()
    client = cluster.sync_client(coordinator_id=0)
    client.put("T", "k", {"vk": "a", "m": "x"}, w=2)
    client.settle()
    # Take down one replica of the view row, then move the view key.
    view_replicas = cluster.replicas_for("V", "a")
    victim = next(r for r in view_replicas if r.node_id != 0)
    cluster.fail_node(victim.node_id)
    client.put("T", "k", {"vk": "b"}, w=2)
    client.settle()
    rows = client.get_view("V", "b", ["m"], r=1)
    assert [r["m"] for r in rows] == ["x"]
    cluster.recover_node(victim.node_id)
    cluster.run_until_idle()


def test_recovered_view_replica_converges_via_repair(switch_off):
    switch_off("read_repair")
    cluster = build()
    client = cluster.sync_client(coordinator_id=0)
    client.put("T", "k", {"vk": "a", "m": "before"}, w=2)
    client.settle()
    view_replicas = cluster.replicas_for("V", "a")
    victim = next(r for r in view_replicas if r.node_id != 0)
    cluster.fail_node(victim.node_id)
    client.put("T", "k", {"m": "after"}, w=2)
    client.settle()
    cluster.recover_node(victim.node_id)
    cluster.run_until_idle()
    # Hinted handoff for the view write may or may not cover everything;
    # anti-entropy definitely converges the view table.
    process = cluster.repair_table("V")
    cluster.env.run(until=process)
    cluster.run_until_idle()
    local = victim.engine.read("V", "a", (("k", "m"),))[("k", "m")]
    assert local is not None and local.value == "after"
    assert check_view(cluster, VIEW) == []


def test_base_put_unavailable_when_quorum_impossible():
    cluster = build()
    client = cluster.sync_client(coordinator_id=0)
    replicas = cluster.replicas_for("T", "k")
    for replica in replicas:
        if replica.node_id != 0:
            cluster.fail_node(replica.node_id)
    alive = sum(1 for r in replicas if not r.is_down)
    if alive < 2:
        with pytest.raises(UnavailableError):
            client.put("T", "k", {"vk": "a"}, w=2)


def test_view_reads_survive_coordinator_choice():
    """Any node can serve view reads, including non-replicas."""
    cluster = build()
    loader = cluster.sync_client(coordinator_id=0)
    loader.put("T", "k", {"vk": "a", "m": "x"}, w=2)
    loader.settle()
    for node_id in range(cluster.config.nodes):
        reader = cluster.sync_client(coordinator_id=node_id)
        (row,) = reader.get_view("V", "a", ["m"], r=2)
        assert row["m"] == "x"


def test_maintenance_with_message_loss_still_converges():
    """Lossy network: internal maintenance retries transient quorum
    shortfalls; the client retries its own timed-out Puts (as a real
    application would)."""
    from repro.errors import QuorumError

    cluster = build(seed=17)
    cluster.network.message_loss = 0.05
    client = cluster.sync_client()

    def put_with_retry(key, values):
        for _attempt in range(8):
            try:
                client.put("T", key, values, w=2)
                return
            except QuorumError:
                continue
        raise AssertionError("put never succeeded despite retries")

    for i in range(10):
        put_with_retry(i, {"vk": f"g{i % 2}", "m": i})
    for i in range(0, 10, 2):
        put_with_retry(i, {"vk": f"g{(i + 1) % 2}"})
    client.settle()
    violations = check_view(cluster, VIEW)
    assert violations == [], violations


def test_propagation_metrics_track_work():
    cluster = build()
    client = cluster.sync_client()
    client.put("T", "k", {"vk": "a"}, w=2)
    client.put("T", "k", {"vk": "b"}, w=2)
    client.settle()
    metrics = cluster.view_manager.maintainer.metrics
    assert metrics.propagations_succeeded == 2
    assert metrics.propagations_started >= 2
    assert metrics.hops_per_propagation() >= 0


def test_skew_grows_chains():
    """Many reassignments of one base row lengthen GetLiveKey walks."""
    cluster = build()
    client = cluster.sync_client()
    for i in range(15):
        client.put("T", "hot", {"vk": f"g{i}"}, w=2)
    client.settle()
    # One hop per reassignment, measured on the rows themselves: the
    # coordinator held the live row through every move after the first,
    # so ``metrics.chain_hops`` (Gets made) says nothing about length.
    entries = entries_for_base_key(
        cluster, VIEW, (NULL_VIEW_KEY, *(f"g{i}" for i in range(15))), "hot")
    hops, current = 0, NULL_VIEW_KEY
    while not entries[current].is_live:
        current = entries[current].next_key
        hops += 1
    assert current == "g14"
    assert hops >= 14
    metrics = cluster.view_manager.maintainer.metrics
    assert metrics.chain_hops + metrics.walks_skipped >= 14
    assert check_view(cluster, VIEW) == []
