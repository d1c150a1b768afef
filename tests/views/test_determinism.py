"""Same seed => same run, down to the clock and the backing-table bytes.

Every figure, golden digest and mvbench ``sim_*`` metric rests on the
simulation being a pure function of its seed.  This drives the full
put -> propagate -> view chain (kernel, network, coordinator, storage,
outbox, Algorithms 1-3) twice from scratch and requires the two runs to
agree on the simulated clock, the propagation counters and every cell of
the view's backing table.
"""

from repro.cluster import Cluster, ClusterConfig
from repro.views import ViewDefinition, state_digest


OPS = 150


def _drive(seed: int):
    """``OPS`` base Puts that each move the view key, each one drained
    (client ack plus the whole asynchronous propagation) before the
    next is issued.  Two coordinators take two passes over the keys
    each in turn, so a row is re-keyed now by the coordinator that last
    moved it and now by the other."""
    cluster = Cluster(ClusterConfig(nodes=4, replication_factor=3, seed=seed))
    cluster.create_table("T")
    cluster.create_view(ViewDefinition("V", "T", "vk", ("m",)))
    clients = (cluster.sync_client(0), cluster.sync_client(1))
    for i in range(OPS):
        client = clients[i // 16 % 2]
        client.put("T", i % 8, {"vk": f"k{i % 5}", "m": i})
        client.settle()
    manager = cluster.view_manager
    metrics = manager.maintainer.metrics
    return (cluster.env.now, manager.completed_propagations,
            metrics.chain_hops, metrics.walks_skipped,
            state_digest(cluster, "V"))


def test_same_seed_same_run():
    first = _drive(seed=0)
    assert first == _drive(seed=0)
    _now, completed, hops, skipped, _digest = first
    # Not vacuous: the first Put of each base row inserts, every later
    # one re-keys, and re-keying walks the chain — unless the
    # coordinator still holds the row it last made live.
    assert completed == OPS
    assert hops > 0
    assert skipped > 0
    assert hops + skipped >= OPS - 8
