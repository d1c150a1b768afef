"""Tests for Merkle-tree anti-entropy."""

import pytest

from repro.cluster import Cluster
from repro.cluster.merkle import (
    MerkleTree,
    build_tree,
    differing_buckets,
    merkle_repair,
)
from repro.common import Cell
from repro.views import state_digest

from tests.cluster.conftest import make_config


def build_cluster(**overrides):
    cluster = Cluster(make_config(**overrides))
    cluster.create_table("T")
    return cluster


# ---------------------------------------------------------------------------
# MerkleTree mechanics
# ---------------------------------------------------------------------------


def test_depth_validation():
    with pytest.raises(ValueError):
        MerkleTree(-1)
    with pytest.raises(ValueError):
        MerkleTree(21)


def test_empty_trees_are_equal():
    a, b = MerkleTree(4), MerkleTree(4)
    a.seal()
    b.seal()
    assert a.root == b.root
    assert differing_buckets(a, b) == []


def test_same_rows_same_tree():
    rows = {f"k{i}": {"c": Cell.make(i, i)} for i in range(20)}
    a, b = MerkleTree(4), MerkleTree(4)
    for tree in (a, b):
        for key in sorted(rows):
            tree.add_row(key, rows[key])
        tree.seal()
    assert a.root == b.root


def test_single_divergent_row_isolated_to_one_bucket():
    a, b = MerkleTree(6), MerkleTree(6)
    for i in range(50):
        cells = {"c": Cell.make(i, i)}
        a.add_row(f"k{i}", cells)
        b.add_row(f"k{i}", dict(cells) if i != 17
                  else {"c": Cell.make("DIFFERENT", 99)})
    a.seal()
    b.seal()
    buckets = differing_buckets(a, b)
    assert buckets == [MerkleTree.bucket_of("k17", 6)]


def test_tombstones_affect_the_tree():
    a, b = MerkleTree(4), MerkleTree(4)
    a.add_row("k", {"c": Cell.make(None, 5)})
    b.add_row("k", {})
    a.seal()
    b.seal()
    assert a.root != b.root


def test_unequal_depths_rejected():
    a, b = MerkleTree(3), MerkleTree(4)
    a.seal()
    b.seal()
    with pytest.raises(ValueError):
        differing_buckets(a, b)


def test_seal_required_for_root():
    tree = MerkleTree(3)
    with pytest.raises(RuntimeError):
        _ = tree.root
    tree.seal()
    with pytest.raises(RuntimeError):
        tree.add_row("k", {})


def test_bucket_assignment_stable_and_in_range():
    for depth in (1, 4, 8):
        for key in range(100):
            bucket = MerkleTree.bucket_of(key, depth)
            assert 0 <= bucket < (1 << depth)
            assert bucket == MerkleTree.bucket_of(key, depth)


# ---------------------------------------------------------------------------
# merkle_repair on a cluster
# ---------------------------------------------------------------------------


def run_repair(cluster, table="T", depth=6):
    process = cluster.env.process(merkle_repair(cluster, table, depth))
    result = cluster.env.run(until=process)
    cluster.run_until_idle()
    return result


def test_converged_replicas_transfer_nothing():
    cluster = build_cluster()
    client = cluster.sync_client()
    for i in range(30):
        client.put("T", i, {"a": i}, w=3)
    client.settle()
    sent_before = cluster.network.messages_sent
    transferred, comparisons = run_repair(cluster)
    assert transferred == 0
    assert comparisons > 0
    # No per-row exchange happened: only the tree round trips.
    assert cluster.network.messages_sent == sent_before


def test_repairs_a_single_divergent_row():
    cluster = build_cluster(read_repair=False)
    client = cluster.sync_client()
    for i in range(30):
        client.put("T", i, {"a": i}, w=3)
    client.settle()
    # Diverge one row on one replica.
    victim = cluster.replicas_for("T", 7)[0]
    victim.engine.apply("T", 7, {"a": Cell.make("stale-extra", 10 ** 18)})
    transferred, _ = run_repair(cluster)
    assert transferred >= 1
    for replica in cluster.replicas_for("T", 7):
        assert replica.engine.read("T", 7, ("a",))["a"].value == "stale-extra"


def test_repair_after_outage_converges_like_full_sweep():
    def diverged_cluster():
        cluster = build_cluster(read_repair=False, hinted_handoff=False)
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
        return cluster

    cluster, sweep_cluster = diverged_cluster(), diverged_cluster()
    transferred, _ = run_repair(cluster)
    assert transferred >= 1
    for i in range(5):
        for replica in cluster.replicas_for("T", i):
            assert replica.engine.read("T", i, ("a",))["a"].value == \
                f"updated{i}"
    # The full sweep, on the same divergence, ends in the same state:
    # merged across nodes, and node by node.
    repaired_rows = sweep_cluster.env.run(
        until=sweep_cluster.repair_table("T"))
    sweep_cluster.run_until_idle()
    assert repaired_rows == transferred  # one stale replica per row
    assert state_digest(cluster, "T") == state_digest(sweep_cluster, "T")
    for node, sweep_node in zip(cluster.nodes, sweep_cluster.nodes):
        assert ({key: node.engine.read_row("T", key)
                 for key in node.engine.keys("T")}
                == {key: sweep_node.engine.read_row("T", key)
                    for key in sweep_node.engine.keys("T")})


def test_merkle_cheaper_than_full_sweep_when_converged():
    """The point of Merkle repair: on a converged table, it sends far
    fewer messages than the full anti-entropy sweep."""
    def converged_cluster():
        cluster = build_cluster()
        client = cluster.sync_client()
        for i in range(40):
            client.put("T", i, {"a": i}, w=3)
        client.settle()
        return cluster

    merkle_cluster = converged_cluster()
    base = merkle_cluster.network.messages_sent
    run_repair(merkle_cluster)
    merkle_messages = merkle_cluster.network.messages_sent - base

    sweep_cluster = converged_cluster()
    base = sweep_cluster.network.messages_sent
    process = sweep_cluster.repair_table("T")
    sweep_cluster.env.run(until=process)
    sweep_cluster.run_until_idle()
    sweep_messages = sweep_cluster.network.messages_sent - base

    assert merkle_messages < sweep_messages / 5


def test_repair_handles_deletion_divergence():
    cluster = build_cluster(read_repair=False)
    client = cluster.sync_client()
    client.put("T", "k", {"a": "v"}, w=3)
    ts = client.put("T", "k", {"a": None}, w=3)
    client.settle()
    # One replica misses the tombstone (hand-rollback).
    victim = cluster.replicas_for("T", "k")[0]
    victim.engine._tables["T"]["k"]._cells["a"] = Cell.make("v", ts - 1)
    transferred, _ = run_repair(cluster)
    assert transferred >= 1
    cell = victim.engine.read("T", "k", ("a",))["a"]
    assert cell.tombstone and cell.timestamp == ts


def test_single_alive_node_is_noop():
    cluster = build_cluster()
    for node in cluster.nodes[1:]:
        node.mark_down()
    assert run_repair(cluster) == (0, 0)
