"""A stuck Init mark raises a typed error instead of failing silently.

The mark is the live row's self-pointer at ``PHASE_ROW``; the unmark
rewrites it at ``PHASE_LIVE``.

Algorithm 4 spins while a row is mid-initialization; if the initializer
died, the old behavior exhausted ``_MAX_SPINS`` invisibly.  Readers now
get :class:`~repro.errors.ViewInitTimeoutError` (a retriable
:class:`ViewError`) and the spin/timeout counters surface in
``ClusterSnapshot``.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import ClusterSnapshot
from repro.common import Cell
from repro.errors import ViewError, ViewInitTimeoutError
from repro.sim.latency import Fixed
from repro.views.definition import ViewDefinition
from repro.views.versioned import PHASE_LIVE, PHASE_ROW, view_timestamp


def build():
    config = ClusterConfig(nodes=4, replication_factor=3, seed=3,
                           client_link=Fixed(0.1), replica_link=Fixed(0.1))
    cluster = Cluster(config)
    cluster.create_table("T")
    cluster.create_view(ViewDefinition("V", "T", "sec", ("payload",)))
    return cluster, cluster.sync_client()


def wedge_init_marker(cluster, view_key, base_key):
    """Plant a never-clearing mark (a self-pointer at ``PHASE_ROW``) on
    every replica of the row."""
    stuck_ts = view_timestamp(10 ** 9, PHASE_ROW)
    cells = {(base_key, "Next"): Cell(view_key, stuck_ts)}
    for replica in cluster.replicas_for("V", view_key):
        replica.engine.apply("V", view_key, cells)


def test_stuck_init_raises_typed_error_and_counts():
    cluster, client = build()
    client.put("T", "k1", {"sec": "s1", "payload": "p"}, w=2)
    client.settle()
    wedge_init_marker(cluster, "s1", "k1")

    with pytest.raises(ViewInitTimeoutError) as exc_info:
        client.get_view("V", "s1", ("payload",), r=2)
    assert "stuck initializing" in str(exc_info.value)
    assert isinstance(exc_info.value, ViewError)  # retriable family

    stats = cluster.view_manager.read_stats
    assert stats.init_timeouts == 1
    assert stats.init_spins > 0

    snap = ClusterSnapshot.capture(cluster)
    assert snap.view_init_timeouts == 1
    assert snap.view_init_spins == stats.init_spins


def test_transient_init_spins_without_timing_out():
    """A marker that clears mid-spin costs spins but no timeout."""
    cluster, client = build()
    client.put("T", "k1", {"sec": "s1", "payload": "p"}, w=2)
    client.settle()
    wedge_init_marker(cluster, "s1", "k1")

    def clear_marker():
        yield cluster.env.timeout(5.0)
        clear_ts = view_timestamp(10 ** 9, PHASE_LIVE)
        for replica in cluster.replicas_for("V", "s1"):
            replica.engine.apply(
                "V", "s1", {("k1", "Next"): Cell("s1", clear_ts)})

    cluster.env.process(clear_marker())
    rows = client.get_view("V", "s1", ("payload",), r=2)
    assert rows[0]["payload"] == "p"
    stats = cluster.view_manager.read_stats
    assert stats.init_spins > 0
    assert stats.init_timeouts == 0
