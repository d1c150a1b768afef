"""Integration tests: client API, replication, failures, eventual delivery."""

import pytest

from repro.cluster import Cluster
from repro.cluster.coordinator import RPC_TIMEOUT
from repro.common import Cell
from repro.errors import ClusterError, NodeDownError

from tests.cluster.conftest import make_config


def build_cluster(**overrides):
    cluster = Cluster(make_config(**overrides))
    cluster.create_table("T")
    return cluster


# ---------------------------------------------------------------------------
# Topology / schema
# ---------------------------------------------------------------------------


def test_replicas_for_returns_n_distinct_nodes():
    cluster = build_cluster()
    replicas = cluster.replicas_for("T", "some-key")
    assert len(replicas) == 3
    assert len({r.node_id for r in replicas}) == 3


def test_replica_placement_depends_only_on_key():
    cluster = build_cluster()
    assert cluster.replicas_for("T", "k") == cluster.replicas_for("T", "k")


def test_tables_created_on_every_node():
    cluster = build_cluster()
    assert all(node.engine.has_table("T") for node in cluster.nodes)


def test_create_index_on_unknown_table_rejected():
    cluster = build_cluster()
    with pytest.raises(ClusterError):
        cluster.create_index("UNKNOWN", "c")


def test_index_on_populated_table_rebuilds_fragments():
    cluster = build_cluster()
    client = cluster.sync_client()
    for i in range(4):
        client.put("T", f"k{i}", {"sec": "v"}, w=3)
    cluster.create_index("T", "sec")
    found = client.get_by_index("T", "sec", "v", ["sec"])
    assert sorted(found) == [f"k{i}" for i in range(4)]


def test_node_lookup_bounds():
    cluster = build_cluster()
    with pytest.raises(ClusterError):
        cluster.node(99)


@pytest.mark.parametrize("node_id", [-1, -2, -4, -5])
def test_a_negative_id_is_no_node(node_id):
    """``-1`` is the network's client end, and no negative id indexes
    the node list from its end."""
    cluster = build_cluster()
    with pytest.raises(ClusterError):
        cluster.node(node_id)
    with pytest.raises(ClusterError):
        cluster.coordinator(node_id)


@pytest.mark.parametrize("node_id", [-2, -1, 4, 7])
def test_a_client_of_no_node_is_refused_when_it_is_made(node_id):
    """A handle names its coordinator once, when it is made: an id
    outside the cluster fails there, not at the handle's first op, and
    a session on it never starts."""
    cluster = build_cluster(nodes=4)
    with pytest.raises(ClusterError):
        cluster.client(node_id)
    with pytest.raises(ClusterError):
        cluster.sync_client(node_id)
    assert cluster.client(3).coordinator_id == 3


# ---------------------------------------------------------------------------
# Client operations
# ---------------------------------------------------------------------------


def test_put_get_round_trip():
    cluster = build_cluster()
    client = cluster.sync_client()
    ts = client.put("T", "k", {"a": 1, "b": "two"}, w=2)
    result = client.get("T", "k", ["a", "b"], r=2)
    assert result == {"a": (1, ts), "b": ("two", ts)}


def test_get_never_written_cell():
    cluster = build_cluster()
    client = cluster.sync_client()
    assert client.get("T", "nope", ["a"]) == {"a": (None, -1)}


def test_put_null_deletes(cluster, client):
    ts1 = client.put("T", "k", {"a": 1}, w=3)
    ts2 = client.put("T", "k", {"a": None}, w=3)
    assert ts2 > ts1
    assert client.get("T", "k", ["a"], r=3) == {"a": (None, ts2)}


def test_put_after_delete_revives(cluster, client):
    client.put("T", "k", {"a": 1}, w=3)
    client.put("T", "k", {"a": None}, w=3)
    ts = client.put("T", "k", {"a": 2}, w=3)
    assert client.get("T", "k", ["a"], r=3) == {"a": (2, ts)}


def test_explicit_timestamps_win_over_ordering(cluster, client):
    client.put("T", "k", {"a": "late"}, w=3, timestamp=100)
    client.put("T", "k", {"a": "early"}, w=3, timestamp=50)
    assert client.get("T", "k", ["a"], r=3)["a"] == ("late", 100)


def test_distinct_clients_get_distinct_timestamps():
    cluster = build_cluster()
    a = cluster.sync_client()
    b = cluster.sync_client()
    assert a.put("T", "x", {"c": 1}) != b.put("T", "y", {"c": 1})


def test_client_to_down_coordinator_fails():
    cluster = build_cluster()
    client = cluster.sync_client(coordinator_id=2)
    cluster.fail_node(2)
    with pytest.raises(NodeDownError):
        client.put("T", "k", {"a": 1})


def test_clients_round_robin_coordinators():
    cluster = build_cluster()
    ids = [cluster.client().coordinator_id for _ in range(8)]
    assert ids == [0, 1, 2, 3, 0, 1, 2, 3]


def test_index_lookup_via_client(cluster, client):
    cluster.create_index("T", "name")
    client.put("T", 1, {"name": "alice"}, w=3)
    client.put("T", 2, {"name": "bob"}, w=3)
    client.put("T", 3, {"name": "alice"}, w=3)
    found = client.get_by_index("T", "name", "alice", ["name"])
    assert sorted(found) == [1, 3]
    assert found[1]["name"][0] == "alice"


def test_index_tracks_updates_and_deletes(cluster, client):
    cluster.create_index("T", "name")
    client.put("T", 1, {"name": "alice"}, w=3)
    client.put("T", 1, {"name": "carol"}, w=3)
    assert client.get_by_index("T", "name", "alice", ["name"]) == {}
    assert sorted(client.get_by_index("T", "name", "carol", ["name"])) == [1]
    client.put("T", 1, {"name": None}, w=3)
    assert client.get_by_index("T", "name", "carol", ["name"]) == {}


# ---------------------------------------------------------------------------
# Stale reads / eventual consistency
# ---------------------------------------------------------------------------


def test_w1_r1_can_read_stale_then_converges():
    """With W=1,R=1 a read may miss the newest write; replicas converge
    once all write messages are delivered."""
    cluster = build_cluster()
    client = cluster.sync_client()
    client.put("T", "k", {"a": "v1"}, w=3)
    # Issue the second put with W=1: ack after first replica.
    env = cluster.env
    process = env.process(client.handle.put("T", "k", {"a": "v2"}, w=1))
    env.run(until=process)
    # Eventually every replica has v2 (broadcast continues in background).
    cluster.run_until_idle()
    for replica in cluster.replicas_for("T", "k"):
        assert replica.engine.read("T", "k", ("a",))["a"].value == "v2"


def test_concurrent_writes_converge_by_timestamp():
    cluster = build_cluster()
    a = cluster.sync_client()
    b = cluster.sync_client()
    env = cluster.env
    pa = env.process(a.handle.put("T", "k", {"c": "from-a"}, 3, 200))
    pb = env.process(b.handle.put("T", "k", {"c": "from-b"}, 3, 100))
    env.run(until=pa)
    env.run(until=pb)
    cluster.run_until_idle()
    for replica in cluster.replicas_for("T", "k"):
        assert replica.engine.read("T", "k", ("c",))["c"].value == "from-a"


# ---------------------------------------------------------------------------
# Failures, hints, anti-entropy
# ---------------------------------------------------------------------------


def test_hinted_handoff_delivers_after_recovery():
    cluster = build_cluster()
    client = cluster.sync_client()
    replicas = cluster.replicas_for("T", "k")
    down = replicas[0]
    down.mark_down()
    client.put("T", "k", {"a": "while-down"}, w=2)
    assert len(cluster.hints) == 1
    assert down.engine.read("T", "k", ("a",))["a"] is None
    cluster.recover_node(down.node_id)
    cluster.run_until_idle()
    assert down.engine.read("T", "k", ("a",))["a"].value == "while-down"
    assert len(cluster.hints) == 0
    assert cluster.hints.hints_replayed == 1


def test_repair_row_reconciles_divergent_replicas():
    cluster = build_cluster()
    replicas = cluster.replicas_for("T", "k")
    replicas[0].engine.apply("T", "k", {"a": Cell.make("new", 9)})
    replicas[1].engine.apply("T", "k", {"b": Cell.make("only-here", 4)})
    process = cluster.repair_row("T", "k")
    repaired = cluster.env.run(until=process)
    assert repaired >= 1
    cluster.run_until_idle()
    for replica in replicas:
        assert replica.engine.read("T", "k", ("a",))["a"].value == "new"
        assert replica.engine.read("T", "k", ("b",))["b"].value == "only-here"


def test_repair_table_sweeps_all_keys():
    cluster = build_cluster()
    # Diverge two rows by hand.
    for key in ("k1", "k2"):
        replicas = cluster.replicas_for("T", key)
        replicas[0].engine.apply("T", key, {"a": Cell.make("fresh", 9)})
    process = cluster.repair_table("T")
    repaired_rows = cluster.env.run(until=process)
    assert repaired_rows == 2
    cluster.run_until_idle()
    for key in ("k1", "k2"):
        for replica in cluster.replicas_for("T", key):
            assert replica.engine.read("T", key, ("a",))["a"].value == "fresh"


def _converged_cluster(rows=20):
    cluster = build_cluster()
    client = cluster.sync_client()
    for i in range(rows):
        client.put("T", i, {"a": i}, w=3)
    cluster.run_until_idle()
    return cluster


def test_repair_row_waits_out_silent_replicas_together():
    """Replicas that are up but never answer cost the sweep one
    ``RPC_TIMEOUT`` between them (they are all read at once and waited
    for through one collector), not one each in turn.  The sweep's
    coordinator, the row's first replica, reads its own copy in process;
    the other two are the silent ones."""
    cluster = _converged_cluster(rows=1)
    env = cluster.env
    cluster.network.message_loss = 1.0  # the two remote replicas: up, silent
    start = env.now
    assert env.run(until=cluster.repair_row("T", 0)) == 0
    assert env.now == start + RPC_TIMEOUT


def test_repair_table_leaves_no_timer_of_its_own_on_the_heap():
    """A sweep waits on the cluster's deadline queue like any quorum
    round, so what it leaves behind is that queue's one armed timer —
    due ``RPC_TIMEOUT`` after the sweep's first read — and nothing per
    RPC (a private timer per RPC left 60 dead heap entries here)."""
    cluster = _converged_cluster()
    env = cluster.env
    assert len(env._heap) == 0
    start = env.now
    assert env.run(until=cluster.repair_table("T")) == 0
    assert len(env._heap) == 1
    env.run()
    assert env.now == start + RPC_TIMEOUT


def test_draining_after_repair_table_stops_at_the_cluster_deadline():
    """``run_until_idle()`` after a sweep ends where it would after the
    sweep's *first* quorum round (the one armed deadline), however long
    the sweep ran: no RPC of the sweep holds the clock for another
    ``RPC_TIMEOUT`` past its own send time."""
    cluster = _converged_cluster()
    env = cluster.env
    start = env.now
    env.run(until=cluster.repair_table("T"))
    assert env.now > start
    cluster.run_until_idle()
    assert env.now == start + RPC_TIMEOUT


def test_hint_replay_is_one_hint_at_a_time():
    """Each hint waits for its ack, or the cluster's timeout, before
    the next is sent: fault timings depend on that order."""
    cluster = build_cluster()
    client = cluster.sync_client()
    target = cluster.replicas_for("T", "k")[0]
    target.mark_down()
    client.put("T", "k", {"a": 1}, w=2)
    client.put("T", "k", {"b": 2}, w=2)
    assert len(cluster.hints) == 2
    cluster.run_until_idle()
    env, network = cluster.env, cluster.network
    network.message_loss = 1.0  # the target comes back up, but silent
    cluster.recover_node(target.node_id)
    recovered, sent = env.now, network.messages_sent
    timeout = RPC_TIMEOUT
    replay = recovered + cluster.hints.replay_interval
    cluster.run(until=replay + timeout - 1.0)
    assert network.messages_sent == sent + 1
    cluster.run(until=replay + timeout + 1.0)
    assert network.messages_sent == sent + 2
    network.message_loss = 0.0
    cluster.run_until_idle()
    assert len(cluster.hints) == 0
    assert cluster.hints.hints_replayed == 2
    assert target.engine.read_row("T", "k").keys() == {"a", "b"}


def test_table_keys_and_converged_rows_read_local_engines():
    cluster = build_cluster()
    replicas = cluster.replicas_for("T", "k")
    replicas[0].engine.apply("T", "k", {"a": Cell.make("old", 1)})
    replicas[1].engine.apply("T", "k", {"a": Cell.make("new", 9),
                                        "b": Cell.make("only", 3)})
    replicas[2].engine.apply("T", "other", {"a": Cell.make("x", 2)})
    assert cluster.table_keys("T") == {"k", "other"}
    merged = {"a": Cell.make("new", 9), "b": Cell.make("only", 3)}
    assert cluster.converged_rows("T") == {
        "k": merged, "other": {"a": Cell.make("x", 2)}}
    # A down node's rows are still part of what the table converges
    # to, but a sweep's key universe is what alive nodes hold.
    replicas[2].mark_down()
    assert cluster.table_keys("T") == {"k"}
    assert cluster.converged_rows("T", ["k", "nowhere"]) == {"k": merged}


def test_repair_table_after_outage_converges_every_replica(switch_off):
    """No hints and no reads (so no read repair): the sweep alone
    brings a replica that was down for five writes level with the
    others."""
    switch_off("hinted_handoff")
    cluster = build_cluster()
    client = cluster.sync_client(coordinator_id=0)
    for i in range(20):
        client.put("T", i, {"a": f"v{i}"}, w=3)
    client.settle()
    down = next(node for node in cluster.nodes if node.node_id != 0)
    down.mark_down()
    for i in range(5):
        client.put("T", i, {"a": f"updated{i}"}, w=2)
    client.settle()
    cluster.recover_node(down.node_id)
    cluster.run_until_idle()
    missed = [i for i in range(5) if down in cluster.replicas_for("T", i)]
    repaired_rows = cluster.env.run(until=cluster.repair_table("T"))
    cluster.run_until_idle()
    assert repaired_rows == len(missed) >= 1  # one stale replica per row
    for i in range(20):
        expected = f"updated{i}" if i < 5 else f"v{i}"
        for replica in cluster.replicas_for("T", i):
            assert replica.engine.read("T", i, ("a",))["a"].value == expected


def test_repair_table_handles_deletion_divergence():
    cluster = build_cluster()
    client = cluster.sync_client()
    client.put("T", "k", {"a": "v"}, w=3)
    ts = client.put("T", "k", {"a": None}, w=3)
    client.settle()
    # One replica misses the tombstone (hand-rollback).
    victim = cluster.replicas_for("T", "k")[0]
    victim.engine._tables["T"]["k"]._cells["a"] = Cell.make("v", ts - 1)
    assert cluster.env.run(until=cluster.repair_table("T")) == 1
    cluster.run_until_idle()
    cell = victim.engine.read("T", "k", ("a",))["a"]
    assert cell.tombstone and cell.timestamp == ts


def test_write_survives_coordinator_other_than_replica():
    """Any node can coordinate writes for keys it does not own."""
    cluster = build_cluster()
    replicas = {r.node_id for r in cluster.replicas_for("T", "k")}
    outsider = next(n for n in cluster.nodes if n.node_id not in replicas)
    client = cluster.sync_client(coordinator_id=outsider.node_id)
    client.put("T", "k", {"a": 1}, w=3)
    assert client.get("T", "k", ["a"], r=1)["a"][0] == 1
