"""Kernel events per client op: a deterministic count, not a wall clock.

An RPC is three timers (request delay, service time, reply delay) and
a quorum round, a reply and a queued CPU request cost no event of their
own.  These budgets fail the moment a per-RPC process, a per-round
timer or a grant event comes back:

- a Get at N = 3 is 2 client hops + 1 coordinator charge + 3 x (request
  timer + replica charge + reply timer) = 12 events; a Put adds one
  background charge per replica write = 15; a 50/50 mix is 13.5 at any
  load (with a ``Process`` per RPC, a timer per round and a grant per
  queued request it was 26-30);
- a view-key Put drained to idle (base Get + Put, outbox record, lock
  round trips, chain walk, view writes) is ~25 RPCs, ~110 events (was
  200-248).
"""

import random

from repro.cluster import Cluster, ClusterConfig
from repro.views import ViewDefinition

CLIENTS = 4
OPS_PER_CLIENT = 50


def events_per_op(cluster, operation) -> float:
    """Run ``CLIENTS`` closed-loop clients of ``operation(handle, rng,
    i)`` to idle; kernel events popped per completed op."""
    env = cluster.env
    events = [0]

    def watcher(_event):
        events[0] += 1

    def client(handle, rng):
        for i in range(OPS_PER_CLIENT):
            yield from operation(handle, rng, i)

    env.set_event_watcher(watcher)
    for index in range(CLIENTS):
        env.process(client(cluster.client(), random.Random(index)))
    cluster.run_until_idle()
    # The client processes themselves: one start and one completion each.
    return (events[0] - 2 * CLIENTS) / (CLIENTS * OPS_PER_CLIENT)


def test_base_table_mix_costs_at_most_15_events_per_op():
    cluster = Cluster(ClusterConfig(seed=5))
    cluster.create_table("T")

    def operation(handle, rng, i):
        key = rng.randrange(40)
        if i % 2:
            return handle.get("T", key, ("payload",))
        return handle.put("T", key, {"payload": f"p{i}"})

    assert events_per_op(cluster, operation) <= 15


def test_view_key_put_costs_at_most_125_events_drained_to_idle():
    cluster = Cluster(ClusterConfig(seed=5))
    cluster.create_table("T")
    cluster.create_view(ViewDefinition("V", "T", "sec", ("payload",)))

    def operation(handle, rng, i):
        return handle.put("T", rng.randrange(200),
                          {"sec": f"s{rng.randrange(1000)}"})

    assert events_per_op(cluster, operation) <= 125
