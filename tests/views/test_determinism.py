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
    next is issued."""
    cluster = Cluster(ClusterConfig(nodes=4, replication_factor=3, seed=seed))
    cluster.create_table("T")
    cluster.create_view(ViewDefinition("V", "T", "vk", ("m",)))
    client = cluster.sync_client()
    for i in range(OPS):
        client.put("T", i % 8, {"vk": f"k{i % 5}", "m": i})
        client.settle()
    manager = cluster.view_manager
    return (cluster.env.now, manager.completed_propagations,
            manager.maintainer.metrics.chain_hops,
            state_digest(cluster, "V"))


def test_same_seed_same_run():
    first = _drive(seed=0)
    assert first == _drive(seed=0)
    _now, completed, hops, _digest = first
    # Not vacuous: the first Put of each base row inserts, every later
    # one re-keys, and re-keying walks the chain.
    assert completed == OPS
    assert hops > 0
