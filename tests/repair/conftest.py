"""Shared helpers for repair-subsystem tests."""

from repro.cluster import Cluster
from repro.views import ViewDefinition

from tests.views.conftest import make_config

VIEW = ViewDefinition("V", "T", "vk", ("m",))


def build(**overrides):
    """A 4-node cluster with base table T and view V, no data yet."""
    cluster = Cluster(make_config(**overrides))
    cluster.create_table("T")
    cluster.create_view(VIEW)
    return cluster


def populate(cluster, rows, w=3):
    """Seed ``rows`` base rows through the full stack and settle.

    Timestamps are explicit small integers (key + 1) so later test
    updates can deterministically win or lose LWW.
    """
    client = cluster.sync_client()
    for key in range(rows):
        client.put("T", key, {"vk": f"g{key % 3}", "m": f"m0-{key}"},
                   w=w, timestamp=key + 1)
    client.settle()
    return client


def run_for(cluster, duration):
    """Advance the simulation by ``duration`` ms."""
    cluster.run(until=cluster.env.now + duration)


def lose_one_propagation(cluster, key, ts, *, downtime=10.0):
    """Apply one update whose propagation is deterministically lost.

    Returns the adversary holding the loss (already drained: the base
    write is acked and durable, the view update is gone, the crashed
    coordinator has recovered).
    """
    from repro.scenarios import lose_propagations

    loss = lose_propagations(cluster, 1, downtime, base_key=key)
    client = cluster.sync_client(coordinator_id=1)
    client.put("T", key, {"vk": "lost"}, w=2, timestamp=ts)
    # Bounded run (never run_until_idle here: a scrubber may be ticking):
    # long enough for the crash, the node's recovery, and any surviving
    # in-flight work to drain.
    run_for(cluster, downtime * 5)
    return loss
