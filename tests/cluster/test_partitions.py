"""Network partitions: behaviour during and convergence after."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.errors import QuorumError
from repro.views import ViewDefinition, check_view

from tests.cluster.conftest import make_config


def build_cluster(**overrides):
    cluster = Cluster(make_config(**overrides))
    cluster.create_table("T")
    return cluster


def test_write_succeeds_across_partial_partition():
    """Cutting one coordinator-replica link leaves W=2 reachable."""
    cluster = build_cluster()
    client = cluster.sync_client(coordinator_id=0)
    replicas = cluster.replicas_for("T", "k")
    target = next(r for r in replicas if r.node_id != 0)
    cluster.partition(0, target.node_id)
    client.put("T", "k", {"a": "through"}, w=2)
    cluster.heal_partition(0, target.node_id)
    cluster.run_until_idle()
    # The partitioned replica silently missed the write (unlike a down
    # node, no hint was recorded), so an R=1 read may legitimately be
    # stale; W=2 + R=2 > N guarantees the value is observed.
    assert client.get("T", "k", ["a"], r=2)["a"][0] == "through"


def test_write_times_out_when_partitioned_from_quorum():
    cluster = build_cluster()
    client = cluster.sync_client(coordinator_id=0)
    replicas = cluster.replicas_for("T", "k")
    cut = [r.node_id for r in replicas if r.node_id != 0][:2]
    for node_id in cut:
        cluster.partition(0, node_id)
    # If the coordinator itself replicates the row it can still reach
    # itself plus at most one replica; demand more than reachable.
    reachable = 3 - len(cut)
    with pytest.raises(QuorumError):
        client.put("T", "k", {"a": 1}, w=reachable + 1)
    cluster.network.heal_all()
    cluster.run_until_idle()


def test_split_brain_converges_after_heal_and_repair(switch_off):
    """Writes land on both sides of a partition; after healing, repair
    converges every replica to the LWW winner (the final quorum reads
    repair nothing: read repair is off)."""
    switch_off("read_repair")
    cluster = build_cluster()
    # Split nodes {0,1} from {2,3}.
    for a in (0, 1):
        for b in (2, 3):
            cluster.partition(a, b)
    left = cluster.sync_client(coordinator_id=0)
    right = cluster.sync_client(coordinator_id=2)
    for key in range(6):
        try:
            left.put("T", key, {"a": f"left{key}"}, w=1, timestamp=100 + key)
        except QuorumError:
            pass
        try:
            right.put("T", key, {"a": f"right{key}"}, w=1,
                      timestamp=200 + key)
        except QuorumError:
            pass
    cluster.network.heal_all()
    cluster.run_until_idle()
    process = cluster.repair_table("T")
    cluster.env.run(until=process)
    cluster.run_until_idle()
    # Every replica agrees on the larger-timestamp (right) value where
    # the right side managed a write.
    reader = cluster.sync_client(coordinator_id=1)
    for key in range(6):
        value, ts = reader.get("T", key, ["a"], r=3)["a"]
        if ts >= 200:
            assert value == f"right{key}"
        for replica in cluster.replicas_for("T", key):
            local = replica.engine.read("T", key, ("a",))["a"]
            assert local is not None and local.value == value


def test_view_maintenance_with_flaky_link():
    """A single cut link slows nothing fundamental: majority quorums for
    maintenance route around it."""
    cluster = build_cluster()
    view = ViewDefinition("V", "T", "vk")
    cluster.create_view(view)
    cluster.partition(1, 2)
    client = cluster.sync_client(coordinator_id=0)
    for i in range(8):
        client.put("T", i, {"vk": f"g{i % 2}"}, w=2)
    client.settle()
    cluster.network.heal_all()
    cluster.run_until_idle()
    process = cluster.repair_table("V")
    cluster.env.run(until=process)
    cluster.run_until_idle()
    assert check_view(cluster, view) == []
    rows = client.get_view("V", "g0", ["B"], r=2)
    assert sorted(r.base_key for r in rows) == [0, 2, 4, 6]


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    cuts=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
            lambda ab: ab[0] != ab[1]),
        max_size=3),
    writes=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 4),
                  st.integers(0, 9)),
        min_size=1, max_size=8),
)
def test_any_partition_heals_to_convergence(cuts, writes):
    """Property: for any set of link cuts and any writes that succeed
    during them, healing + repair converges all replicas."""
    cluster = build_cluster()
    for a, b in cuts:
        cluster.partition(a, b)
    clients = {}
    accepted = {}
    for index, (coordinator_id, key, value) in enumerate(writes):
        client = clients.get(coordinator_id)
        if client is None:
            client = cluster.sync_client(coordinator_id=coordinator_id)
            clients[coordinator_id] = client
        ts = (index + 1) * 1000
        try:
            client.put("T", key, {"a": value}, w=1, timestamp=ts)
        except QuorumError:
            continue
        if ts > accepted.get(key, (0, None))[0]:
            accepted[key] = (ts, value)
    cluster.network.heal_all()
    cluster.run_until_idle()
    process = cluster.repair_table("T")
    cluster.env.run(until=process)
    cluster.run_until_idle()
    for key, (ts, value) in accepted.items():
        for replica in cluster.replicas_for("T", key):
            local = replica.engine.read("T", key, ("a",))["a"]
            assert local is not None
            assert local.timestamp >= ts
