"""Deterministic end-to-end tests of the bounded-staleness read path."""

import pytest

from repro.cluster.client import ClientHandle, SyncClient
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.errors import QuorumError
from repro.freshness.certificate import StaleSource
from repro.views import drive
from repro.views.definition import ViewDefinition

COLUMNS = ("sec", "payload")


def build(**overrides):
    config = ClusterConfig(nodes=4, replication_factor=3, seed=11,
                           **overrides)
    cluster = Cluster(config)
    cluster.create_table("T")
    cluster.create_view(ViewDefinition("V", "T", "sec", ("payload",)))
    client = SyncClient(ClientHandle(cluster, 1, 0))
    return cluster, client


def break_propagation(cluster, monkeypatch):
    """Simulate the guess-retry livelock: every round fails."""
    def failing_round(*_args, **_kwargs):
        yield cluster.env.timeout(0.5)
        return False

    monkeypatch.setattr(drive, "_attempt_round", failing_round)


def test_unbounded_read_serves_with_certificate():
    cluster, client = build()
    client.put("T", "k1", {"sec": "s1", "payload": "p0"}, w=2)
    client.settle()
    fresh = client.get_view_fresh("V", "s1", COLUMNS, r=2)
    assert len(fresh) == 1
    assert fresh.results[0]["payload"] == "p0"
    assert not fresh.escalated
    assert fresh.certificate.open_sources == 0
    assert fresh.certificate.bound_ms is None


def test_bound_hit_serves_from_the_view():
    cluster, client = build()
    client.put("T", "k1", {"sec": "s1", "payload": "p0"}, w=2)
    client.settle()
    fresh = client.get_view_fresh("V", "s1", COLUMNS, r=2,
                                  max_staleness_ms=100.0)
    assert not fresh.escalated
    assert fresh.certificate.bound_met is True
    assert fresh.certificate.bound_ms == 100.0
    slo = cluster.view_manager.freshness_slo
    assert slo.bound_hits == 1
    assert slo.escalations == 0


def test_escalation_compensates_a_lost_data_update(monkeypatch):
    """A wounded chain's stale payload is healed from the base table."""
    monkeypatch.setattr(drive, "MAX_ROUNDS", 3)
    cluster, client = build()
    client.put("T", "k1", {"sec": "s1", "payload": "old"}, w=2)
    client.settle()

    break_propagation(cluster, monkeypatch)
    client.put("T", "k1", {"payload": "new"}, w=2)
    client.settle()
    manager = cluster.view_manager
    assert manager.abandoned_propagations == 1
    assert manager.freshness.wounded_keys("V") == ["k1"]

    # The plain view read still serves the stale payload.
    stale = client.get_view("V", "s1", COLUMNS, r=2)
    assert stale[0]["payload"] == "old"

    # A bounded read must escalate and merge the fresh base value.
    fresh = client.get_view_fresh("V", "s1", COLUMNS, r=2,
                                  max_staleness_ms=5.0)
    assert fresh.escalated
    assert fresh.compensated_keys == ("k1",)
    assert fresh.certificate.bound_met is True
    assert fresh.certificate.compensated
    assert fresh.certificate.staleness_ms <= 5.0
    assert fresh.results[0]["payload"] == "new"

    # Repair heals the wound; bounded reads serve from the view again.
    monkeypatch.undo()
    scrubber = cluster.start_scrubber(interval=20.0)
    cluster.run(until=cluster.env.now + 200.0)
    scrubber.stop()
    cluster.run_until_idle()
    assert manager.freshness.wounded_keys("V") == []
    healed = client.get_view_fresh("V", "s1", COLUMNS, r=2,
                                   max_staleness_ms=5.0)
    assert not healed.escalated
    assert healed.results[0]["payload"] == "new"


def test_escalation_drops_a_row_the_base_moved_away(monkeypatch):
    """A lost view-key move: the stale row under the old view key must
    not be served by a bounded read."""
    monkeypatch.setattr(drive, "MAX_ROUNDS", 3)
    cluster, client = build()
    client.put("T", "k1", {"sec": "s1", "payload": "p0"}, w=2)
    client.settle()

    break_propagation(cluster, monkeypatch)
    client.put("T", "k1", {"sec": "s2"}, w=2)
    client.settle()

    stale = client.get_view("V", "s1", COLUMNS, r=2)
    assert [res.base_key for res in stale] == ["k1"]

    old_home = client.get_view_fresh("V", "s1", COLUMNS, r=2,
                                     max_staleness_ms=5.0)
    assert old_home.escalated
    assert len(old_home) == 0  # the base maps k1 to s2 now

    new_home = client.get_view_fresh("V", "s2", COLUMNS, r=2,
                                     max_staleness_ms=5.0)
    assert new_home.escalated
    assert [res.base_key for res in new_home] == ["k1"]
    assert new_home.results[0]["payload"] == "p0"


def test_escalation_compensates_every_lagging_key(monkeypatch):
    monkeypatch.setattr(drive, "MAX_ROUNDS", 3)
    cluster, client = build()
    for key in ("k1", "k2"):
        client.put("T", key, {"sec": "s1", "payload": "old"}, w=2)
    client.settle()
    break_propagation(cluster, monkeypatch)
    for key in ("k1", "k2"):
        client.put("T", key, {"payload": "new"}, w=2)
    client.settle()
    assert len(cluster.view_manager.freshness.wounded_keys("V")) == 2

    fresh = client.get_view_fresh("V", "s1", COLUMNS, r=2,
                                  max_staleness_ms=5.0)
    assert fresh.escalated
    assert fresh.compensated_keys == ("k1", "k2")
    assert fresh.certificate.bound_met is True
    assert [res["payload"] for res in fresh] == ["new", "new"]


def test_overlapping_records_from_two_coordinators_open_no_wound():
    """Two coordinators' records on one chain in flight at once: the
    chain's lock serializes them, both succeed, and the view is right —
    no wound, so a bound the (empty) outbox lag meets is a bound hit."""
    cluster, client = build()
    client.put("T", "k1", {"sec": "s1", "payload": "p0"}, w=2, timestamp=10)
    client.settle()
    for node, ts in ((0, 20), (2, 30)):
        cluster.env.process(cluster.client(coordinator_id=node).put(
            "T", "k1", {"sec": f"s{ts // 10}", "payload": f"p{ts}"}, 2, ts))
    client.settle()
    locks = cluster.view_manager.locks.stats()
    assert locks["contentions"] >= 1  # the second record waited on the first
    tracker = cluster.view_manager.freshness
    assert tracker.open_wounds == 0
    assert tracker.wounds_opened == 0

    cluster.run(until=cluster.env.now + 50.0)
    fresh = client.get_view_fresh("V", "s3", COLUMNS, r=2,
                                  max_staleness_ms=5.0)
    assert not fresh.escalated
    assert fresh.compensated_keys == ()
    assert fresh.certificate.bound_met is True
    assert [res["payload"] for res in fresh] == ["p30"]


def test_reordered_records_from_two_coordinators_open_no_wound():
    """An older-timestamped record executing after a newer one another
    coordinator already landed: LWW makes it a no-op, not a wound."""
    cluster, client = build()
    for node, ts in ((0, 30), (2, 20)):
        cluster.sync_client(node).put(
            "T", "k1", {"sec": f"s{ts // 10}", "payload": f"p{ts}"}, 2, ts)
        client.settle()
    assert cluster.view_manager.completed_propagations == 2
    assert cluster.view_manager.freshness.wounds_opened == 0

    cluster.run(until=cluster.env.now + 50.0)
    fresh = client.get_view_fresh("V", "s3", COLUMNS, r=2,
                                  max_staleness_ms=5.0)
    assert not fresh.escalated
    assert [res["payload"] for res in fresh] == ["p30"]
    assert len(client.get_view("V", "s2", COLUMNS, r=2)) == 0


def test_an_interrupted_move_wounds_its_chain_until_repropagated(
        monkeypatch):
    """A view-key move cut after line 8 (its line-4 Put fails) wounds
    nothing: the base row has no live row until the retry's walk
    finishes the move, and meanwhile the key lags only through its
    record's own ``outbox-lag`` source.  The retry heals it, so a
    bounded read afterwards needs no compensation."""
    cluster, client = build()
    client.put("T", "k1", {"sec": "s1", "payload": "p0"}, w=2, timestamp=10)
    client.settle()
    manager = cluster.view_manager
    tracker = manager.freshness
    tracer = cluster.enable_tracing()
    real_put = manager.maintainer._view_put
    puts = []

    def view_put(coordinator, view_name, view_key, cells):
        puts.append((view_key, tracker.sources("V")))
        if len(puts) == 2:  # line 4 of the move s1 -> s2, after line 8
            raise QuorumError("injected", required=2, received=0)
        yield from real_put(coordinator, view_name, view_key, cells)

    monkeypatch.setattr(manager.maintainer, "_view_put", view_put)
    client.put("T", "k1", {"sec": "s2"}, w=2, timestamp=20)
    appended_at = tracer.events("base_put")[-1].at
    client.settle()
    assert [key for key, _sources in puts] == ["s1", "s2", "s2", "s2"]
    # The retry's first Put finishes the cut move; until then the key
    # lagged through its record alone.
    assert puts[2][1] == [StaleSource("k1", appended_at, "outbox-lag")]
    assert manager.completed_propagations == 2  # the retry finished it
    assert tracker.sources("V") == []
    assert tracker.stats()["wounds_opened"] == 0

    fresh = client.get_view_fresh("V", "s2", COLUMNS, r=2,
                                  max_staleness_ms=5.0)
    assert not fresh.escalated
    assert [res["payload"] for res in fresh] == ["p0"]
    assert client.get_view("V", "s1", COLUMNS, r=2) == []


def test_session_records_the_served_certificate():
    """A session's fresh read is certified after its barrier: the
    session's own Put has propagated by then, so the certificate served
    with the row names no open source."""
    cluster, client = build()
    client.begin_session()
    client.put("T", "k1", {"sec": "s1", "payload": "p0"}, w=2)
    assert cluster.view_manager.pending_propagations == 1
    fresh = client.get_view_fresh("V", "s1", COLUMNS, r=2,
                                  max_staleness_ms=50.0)
    assert [res["payload"] for res in fresh] == ["p0"]
    certificate = fresh.certificate
    assert (certificate.provenance, certificate.open_sources) == ("fresh", 0)
    assert certificate.bound_ms == 50.0 and certificate.bound_met
    assert not fresh.escalated
    client.end_session()


def test_negative_bound_is_rejected():
    cluster, client = build()
    with pytest.raises(ValueError):
        client.get_view_fresh("V", "s1", COLUMNS, r=2, max_staleness_ms=-1.0)


def test_snapshot_surfaces_freshness_counters(monkeypatch):
    """The manager's ``freshness_stats()`` snapshot counts bounded
    reads, escalations, compensation and staleness wounds."""
    monkeypatch.setattr(drive, "MAX_ROUNDS", 3)
    cluster, client = build()
    client.put("T", "k1", {"sec": "s1", "payload": "old"}, w=2)
    client.settle()
    break_propagation(cluster, monkeypatch)
    client.put("T", "k1", {"payload": "new"}, w=2)
    client.settle()
    client.get_view_fresh("V", "s1", COLUMNS, r=2, max_staleness_ms=5.0)
    client.get_view_fresh("V", "s1", COLUMNS, r=2, max_staleness_ms=1e9)
    stats = cluster.view_manager.freshness_stats()
    slo = stats["slo"]
    assert slo["reads_bounded"] == 2
    assert slo["escalations"] == 1
    assert slo["bound_hits"] == 1
    assert slo["compensated_keys"] == 1
    assert stats["open_wounds"] == 1
    assert stats["wounds_opened"] == 1
