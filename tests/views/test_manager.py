"""Integration tests for ViewManager: Algorithm 1 via the client API."""

import pytest

from repro.cluster import Cluster
from repro.errors import (
    NoSuchViewError,
    UnavailableError,
    ViewDefinitionError,
    ViewExistsError,
    ViewNotUpdatableError,
)
from repro.views import ViewDefinition, check_view

from tests.views.conftest import make_config


def build(**overrides):
    cluster = Cluster(make_config(**overrides))
    cluster.create_table("T")
    cluster.create_view(ViewDefinition("V", "T", "vk", ("m",)))
    return cluster, cluster.sync_client()


VIEW = ViewDefinition("V", "T", "vk", ("m",))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_create_view_creates_backing_table():
    cluster, _client = build()
    assert cluster.has_table("V")
    assert cluster.view_manager.is_view("V")
    assert cluster.view_manager.view_names() == ["V"]


def test_duplicate_view_rejected():
    cluster, _client = build()
    with pytest.raises(ViewExistsError):
        cluster.create_view(ViewDefinition("V", "T", "vk"))


def test_view_on_missing_base_rejected():
    cluster = Cluster(make_config())
    with pytest.raises(ViewDefinitionError):
        cluster.create_view(ViewDefinition("V", "MISSING", "vk"))


def test_view_on_view_rejected():
    cluster, _client = build()
    with pytest.raises(ViewDefinitionError):
        cluster.create_view(ViewDefinition("VV", "V", "vk"))


def test_view_shadowing_table_rejected():
    cluster, _client = build()
    cluster.create_table("OTHER")
    with pytest.raises(ViewDefinitionError):
        cluster.create_view(ViewDefinition("OTHER", "T", "vk"))


def test_unknown_view_lookup():
    cluster, client = build()
    with pytest.raises(NoSuchViewError):
        client.get_view("NOPE", "k", ["m"])


def test_views_not_updateable():
    _cluster, client = build()
    with pytest.raises(ViewNotUpdatableError):
        client.put("V", "k", {"m": 1})


def test_multiple_views_on_one_table():
    cluster, client = build()
    cluster.create_view(ViewDefinition("V2", "T", "m"))
    client.put("T", "k", {"vk": "a", "m": "b"}, w=3)
    client.settle()
    assert [r.base_key for r in client.get_view("V", "a", ["m"])] == ["k"]
    assert [r.base_key for r in client.get_view("V2", "b", ["B"])] == ["k"]


# ---------------------------------------------------------------------------
# Algorithm 1 through the client
# ---------------------------------------------------------------------------


def test_put_then_view_get_after_settle():
    cluster, client = build()
    client.put("T", "k1", {"vk": "alice", "m": "x"}, w=2)
    client.put("T", "k2", {"vk": "alice", "m": "y"}, w=2)
    client.put("T", "k3", {"vk": "bob", "m": "z"}, w=2)
    client.settle()
    results = client.get_view("V", "alice", ["m"], r=2)
    assert sorted((r.base_key, r["m"]) for r in results) == [
        ("k1", "x"), ("k2", "y")]
    assert [r["m"] for r in client.get_view("V", "bob", ["m"])] == ["z"]
    assert check_view(cluster, VIEW) == []


def test_view_is_asynchronously_stale_then_catches_up():
    cluster, client = build()
    client.put("T", "k", {"vk": "a"}, w=2)
    client.settle()
    # Issue a reassignment but advance the clock only to the Put ack:
    # the view should still show the old assignment (staleness window).
    env = cluster.env
    process = env.process(client.handle.put("T", "k", {"vk": "b"}, 2))
    env.run(until=process)
    stale = client.get_view("V", "a", ["B"], r=2)
    fresh = client.get_view("V", "b", ["B"], r=2)
    assert len(stale) + len(fresh) >= 1  # one of them shows the row
    client.settle()
    assert client.get_view("V", "a", ["B"]) == []
    assert [r.base_key for r in client.get_view("V", "b", ["B"])] == ["k"]


def test_unwatched_column_does_not_propagate():
    cluster, client = build()
    client.put("T", "k", {"vk": "a"}, w=2)
    client.settle()
    before = cluster.view_manager.completed_propagations
    client.put("T", "k", {"unrelated": 1}, w=2)
    client.settle()
    assert cluster.view_manager.completed_propagations == before


def test_watched_put_counts_propagation():
    cluster, client = build()
    client.put("T", "k", {"vk": "a"}, w=2)
    client.settle()
    assert cluster.view_manager.completed_propagations == 1
    client.put("T", "k", {"m": "x"}, w=2)
    client.settle()
    assert cluster.view_manager.completed_propagations == 2


def test_an_idle_manager_holds_no_in_flight_put():
    """A chain counts a base Put in flight from its first replica write
    to its append, or its failure, and no longer: once Puts return, the
    manager keeps no entry for a chain, not even at zero (it kept one
    per chain ever Put)."""
    cluster, client = build()
    manager = cluster.view_manager
    for i in range(20):
        client.put("T", f"k{i}", {"vk": f"g{i % 4}", "m": i}, w=2)
    client.put("T", "k0", {"vk": "moved"}, w=2)
    (replica, *_others) = cluster.replicas_for("T", "down")
    replica.mark_down()
    with pytest.raises(UnavailableError):
        client.put("T", "down", {"vk": "x"}, w=3)
    replica.mark_up()
    client.settle()
    assert list(manager._puts_in_flight) == []
    assert manager.chain_epoch("V", "k0") is not None


def test_interleaved_updates_many_keys():
    cluster, client = build()
    for i in range(20):
        client.put("T", f"k{i}", {"vk": f"g{i % 4}", "m": i}, w=2)
    for i in range(0, 20, 3):
        client.put("T", f"k{i}", {"vk": f"g{(i + 1) % 4}"}, w=2)
    client.settle()
    assert check_view(cluster, VIEW) == []
    # Spot-check a moved row.
    moved = client.get_view("V", "g1", ["m"])
    assert any(r.base_key == "k0" for r in moved)


def test_combined_get_then_put_mode():
    cluster, client = build(combined_get_then_put=True)
    client.put("T", "k", {"vk": "a", "m": "x"}, w=2)
    client.put("T", "k", {"vk": "b"}, w=2)
    client.settle()
    assert client.get_view("V", "a", ["m"]) == []
    assert [r["m"] for r in client.get_view("V", "b", ["m"])] == ["x"]
    assert check_view(cluster, VIEW) == []


def test_base_put_on_divergent_replicas_hands_algorithm_1_every_version(
        monkeypatch):
    """A quorum Get asks R replicas; Algorithm 1's Get (lines 2-3) is
    not one: propagation needs every base replica's view-key version as
    a chain entry point, so even a W = 1 Put asks all N.  The chain is
    past turn 0 (another coordinator's materialized-only Put took turn
    1, which holds no row), so the Put cannot skip the Get."""
    from repro.common import Cell
    from repro.views.outbox import NodeOutbox

    cluster, _client = build()
    client = cluster.sync_client(0)
    other = cluster.sync_client(1)
    other.put("T", "k", {"m": "x"}, w=1)
    other.settle()
    for index, replica in enumerate(cluster.replicas_for("T", "k")):
        replica.engine.apply(
            "T", "k", {"vk": Cell.make(f"v{index}", 10 + index)})
    records = []
    real = NodeOutbox.append

    def append(self, *args):
        appended = real(self, *args)
        records.append(appended[0])
        return appended

    monkeypatch.setattr(NodeOutbox, "append", append)
    client.put("T", "k", {"vk": "new"}, w=1)
    client.settle()
    (record,) = records
    (collector,) = record.sources
    assert sorted(response.cells["vk"].value
                  for response in collector.responses) == ["v0", "v1", "v2"]
    assert sum(cluster.coordinator(node.node_id).hedged_reads
               for node in cluster.nodes) == 0
    # The materialized-only Put skipped its read; this one did not.
    assert cluster.view_manager.maintainer.metrics.reads_skipped == 1


@pytest.mark.parametrize("mode", ["locks", "propagators"])
def test_all_concurrency_modes_work_sequentially(mode):
    cluster, client = build(propagation_concurrency=mode)
    client.put("T", "k", {"vk": "a", "m": 1}, w=2)
    client.put("T", "k", {"vk": "b"}, w=2)
    client.put("T", "k", {"m": 2}, w=2)
    client.settle()
    assert [r["m"] for r in client.get_view("V", "b", ["m"])] == [2]
    assert check_view(cluster, VIEW) == []


def test_backpressure_blocks_puts():
    """With a tiny propagation budget and a long propagation delay, a
    burst of Puts must wait for slots."""
    from repro.sim.latency import Fixed

    cluster, client = build(max_pending_propagations=1,
                            propagation_delay=Fixed(20.0))
    env = cluster.env
    done_times = []

    def burst():
        for i in range(3):
            yield from client.handle.put("T", f"k{i}", {"vk": "a"}, 2)
            done_times.append(env.now)

    process = env.process(burst())
    env.run(until=process)
    # First Put acks quickly; later ones block on the backlog slot.
    assert done_times[1] - done_times[0] > 10.0
    assert done_times[2] - done_times[1] > 10.0
    client.settle()
    assert check_view(cluster, VIEW) == []


def test_view_get_quorum_parameter():
    cluster, client = build()
    client.put("T", "k", {"vk": "a", "m": "x"}, w=3)
    client.settle()
    for r in (1, 2, 3):
        assert [row["m"] for row in client.get_view("V", "a", ["m"], r=r)] == ["x"]


def test_predicate_view_filters_rows():
    cluster = Cluster(make_config())
    cluster.create_table("T")
    cluster.create_view(ViewDefinition(
        "OPEN", "T", "status", key_predicate=lambda s: s == "open"))
    client = cluster.sync_client()
    client.put("T", 1, {"status": "open"}, w=2)
    client.put("T", 2, {"status": "closed"}, w=2)
    client.settle()
    assert [r.base_key for r in client.get_view("OPEN", "open", ["B"])] == [1]
    assert client.get_view("OPEN", "closed", ["B"]) == []
    # Closing ticket 1 removes it from the view.
    client.put("T", 1, {"status": "closed"}, w=2)
    client.settle()
    assert client.get_view("OPEN", "open", ["B"]) == []


def test_backfill_builds_view_over_existing_data():
    cluster = Cluster(make_config())
    cluster.create_table("T")
    client = cluster.sync_client()
    for i in range(6):
        client.put("T", i, {"vk": f"g{i % 2}", "m": i * 10}, w=3)
    client.settle()
    view = ViewDefinition("LATE", "T", "vk", ("m",))
    cluster.create_view(view)
    process = cluster.env.process(cluster.backfill("LATE"))
    metrics = cluster.env.run(until=process)
    assert metrics.repairs_applied == 6
    client.settle()
    results = client.get_view("LATE", "g0", ["m"])
    assert sorted((r.base_key, r["m"]) for r in results) == [
        (0, 0), (2, 20), (4, 40)]
    assert check_view(cluster, view) == []


def test_deletion_via_client():
    cluster, client = build()
    client.put("T", "k", {"vk": "a", "m": "x"}, w=2)
    client.settle()
    client.put("T", "k", {"vk": None}, w=2)
    client.settle()
    assert client.get_view("V", "a", ["m"]) == []
    assert check_view(cluster, VIEW) == []
