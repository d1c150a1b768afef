"""Deadline-based propagation abandonment (``propagation_deadline_ms``).

The guess-retry loop of Algorithm 2 can livelock on a hot chain; the
deadline gives the retry loop a wall-clock budget so a hopeless
propagation hands its token back early instead of burning the whole
round budget.  Abandonment must be loud: a counter, a trace, and a
freshness wound with ``deadline-abandoned`` provenance.
"""

from repro.cluster.client import ClientHandle, SyncClient
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import ClusterSnapshot
from repro.views import drive
from repro.views.definition import ViewDefinition


def build(**overrides):
    config = ClusterConfig(nodes=4, replication_factor=3, seed=7,
                           **overrides)
    cluster = Cluster(config)
    cluster.create_table("T")
    cluster.create_view(ViewDefinition("V", "T", "sec", ("payload",)))
    client = SyncClient(ClientHandle(cluster, 1, 0))
    return cluster, client


def install_failing_rounds(cluster, monkeypatch):
    """Every propagation round fails; returns the round counter."""
    counter = {"rounds": 0}

    def failing_round(*_args, **_kwargs):
        counter["rounds"] += 1
        yield cluster.env.timeout(0.5)
        return False

    monkeypatch.setattr(drive, "_attempt_round", failing_round)
    return counter


def test_no_deadline_burns_the_whole_round_budget(monkeypatch):
    cluster, client = build(propagation_max_rounds=6)
    counter = install_failing_rounds(cluster, monkeypatch)
    client.put("T", "k1", {"sec": "s1", "payload": "p"}, w=2)
    client.settle()
    manager = cluster.view_manager
    assert counter["rounds"] == 6
    assert manager.abandoned_propagations == 1
    assert manager.deadline_abandoned_propagations == 0
    (source,) = manager.freshness.sources("V")
    assert source.provenance == "retries-abandoned"


def test_deadline_abandons_long_before_the_round_budget(monkeypatch):
    cluster, client = build(propagation_deadline_ms=40.0)
    counter = install_failing_rounds(cluster, monkeypatch)
    client.put("T", "k1", {"sec": "s1", "payload": "p"}, w=2)
    client.settle()
    manager = cluster.view_manager
    # Default budget is 200 rounds; the 40 ms deadline fires first.
    assert counter["rounds"] < 30
    assert manager.abandoned_propagations == 1
    assert manager.deadline_abandoned_propagations == 1
    (source,) = manager.freshness.sources("V")
    assert source.provenance == "deadline-abandoned"
    cert = manager.freshness.certificate("V")
    assert cert.provenance == "deadline-abandoned"
    assert not cert.is_fresh
    snap = ClusterSnapshot.capture(cluster)
    assert snap.deadline_abandoned_propagations == 1


def test_first_attempt_always_runs_even_with_a_tiny_deadline():
    """The deadline bounds *retrying*, never the first attempt."""
    cluster, client = build(propagation_deadline_ms=0.001)
    client.put("T", "k1", {"sec": "s1", "payload": "p"}, w=2)
    client.settle()
    manager = cluster.view_manager
    assert manager.completed_propagations >= 1
    assert manager.deadline_abandoned_propagations == 0
    fresh = client.get_view("V", "s1", ("payload",), r=2)
    assert fresh[0]["payload"] == "p"
