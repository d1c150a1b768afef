"""Fault-free client traffic makes no reference cycle, and a dropped
cluster is freed by reference counting.

``Environment.run`` keeps the cyclic collector off while it drains the
heap and relies on reference counting to free what a run drops (see the
kernel's Performance notes).  That is only free if the traffic makes no
cycle: this drives each client op kind the benchmark's workloads use on
a default cluster and asserts the collector finds nothing afterwards.
Fault paths do make cycles (an exception and its traceback); those are
left to the collection ``run`` makes on its way out.

The cluster itself is a tree (no collaborator holds its owner), so one
that drained is freed as soon as it is dropped, and one dropped mid-run
is too once it is closed (``Cluster.close``).
"""

import gc
import weakref

import pytest

from repro import Cluster, ClusterConfig, ViewDefinition
from repro.sim.kernel import Process
from repro.workloads.runner import run_closed_loop


@pytest.fixture
def no_automatic_collection():
    """Only the test's own ``gc.collect()`` calls may collect."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def test_client_traffic_makes_no_reference_cycle(no_automatic_collection):
    cluster = Cluster(ClusterConfig(seed=0))
    cluster.create_table("B")
    cluster.create_table("T")
    cluster.create_view(ViewDefinition("V", "T", "sec", ("payload",)))
    writer, reader = cluster.client(), cluster.client()
    reader.begin_session()
    results = {}

    def load():
        for key in range(4):
            yield from writer.put("T", key, {"sec": f"s{key}",
                                             "payload": f"p{key}"}, w=3)
            yield from writer.put("B", key, {"payload": f"p{key}"}, w=3)

    def traffic():
        yield from writer.put("B", 0, {"payload": "b"}, w=1)
        results["get"] = yield from writer.get("B", 0, ("payload",), r=1)
        yield from reader.put("T", 1, {"sec": "s0"}, w=1)    # moves the key
        yield from reader.put("T", 2, {"sec": None}, w=1)    # a tombstone
        results["get_view"] = yield from reader.get_view(
            "V", "s0", ("payload",), r=1)
        results["get_view_fresh"] = yield from writer.get_view_fresh(
            "V", "s3", ("payload",), r=1, max_staleness_ms=50.0)

    cluster.env.process(load())
    cluster.run_until_idle()
    gc.collect()
    cluster.env.process(traffic())
    cluster.run_until_idle()
    assert gc.collect() == 0

    assert results["get"]["payload"][0] == "b"
    assert sorted(row.base_key for row in results["get_view"]) == [0, 1]
    assert [row.base_key for row in results["get_view_fresh"]] == [3]
    assert cluster.view_manager is not None   # still referenced here


def _viewed_cluster(**overrides):
    cluster = Cluster(ClusterConfig(seed=0, **overrides))
    cluster.create_table("T")
    cluster.create_view(ViewDefinition("V", "T", "sec", ("payload",)))
    return cluster


def _load(cluster, rows):
    """Write ``rows`` rows, then move each one's view key."""
    client = cluster.client()

    def load():
        for key in range(rows):
            yield from client.put("T", key, {"sec": f"s{key % 7}",
                                             "payload": key}, w=2)
        for key in range(rows):
            yield from client.put("T", key, {"sec": f"t{key % 5}"}, w=2)
    cluster.env.process(load())
    cluster.run_until_idle()


def _writer(client, rng):
    yield from client.put("T", rng.randrange(20),
                          {"sec": f"s{rng.randrange(5)}", "payload": 1}, w=1)


def _assert_freed(cluster_ref):
    assert cluster_ref() is None
    assert gc.collect() == 0


@pytest.mark.parametrize("mode", ["locks", "propagators"])
def test_a_drained_cluster_is_freed_when_dropped(no_automatic_collection,
                                                 mode):
    cluster = _viewed_cluster(propagation_concurrency=mode)
    _load(cluster, 50)
    gc.collect()
    dropped = weakref.ref(cluster)
    del cluster
    _assert_freed(dropped)


def _closed_mid_run(monkeypatch, scrub):
    """A viewed cluster closed with eight writers' Puts and their
    propagations in flight (and a scrubber, if ``scrub``); returns a
    weak reference to it and how many processes the close started."""
    cluster = _viewed_cluster()
    _load(cluster, 20)
    if scrub:
        cluster.start_scrubber()
    run_closed_loop(cluster, _writer, clients=8, duration=20.0)
    assert cluster.view_manager.pending_propagations > 0
    gc.collect()
    started = []
    real = Process.__init__

    def counting(self, *args, **kwargs):
        started.append(self)
        real(self, *args, **kwargs)
    monkeypatch.setattr(Process, "__init__", counting)
    cluster.close()
    monkeypatch.setattr(Process, "__init__", real)
    dropped = weakref.ref(cluster)
    del cluster
    return dropped, started


@pytest.mark.parametrize("scrub", [False, True])
def test_a_cluster_closed_mid_run_is_freed_when_dropped(
        no_automatic_collection, monkeypatch, scrub):
    dropped, _started = _closed_mid_run(monkeypatch, scrub)
    _assert_freed(dropped)


def test_a_closed_propagation_starts_nothing(no_automatic_collection,
                                             monkeypatch):
    """Closing a record's process runs its ``finally``, which hands the
    chain on: the next parked record must not start on a closed
    simulation."""
    dropped, started = _closed_mid_run(monkeypatch, scrub=False)
    assert started == []
    _assert_freed(dropped)
