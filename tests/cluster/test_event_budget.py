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
  round trips, one-hop chain walk, three view writes) is six quorum
  rounds — ~18 RPCs, ~81 events (with CopyData's own Get it was ~91,
  and 200-248 before the RPC path lost its heap hops); a Put that also
  writes a materialized column adds the line-12 round: ~21 RPCs, ~95
  events (~108 with CopyData's Get and Put);
- the same view-key Put through the coordinator that last moved the row
  (each client re-keying rows of its own) skips the chain walk's Get:
  five quorum rounds — ~15 RPCs, ~71 events.
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


def _view_cluster():
    cluster = Cluster(ClusterConfig(seed=5))
    cluster.create_table("T")
    cluster.create_view(ViewDefinition("V", "T", "sec", ("payload",)))
    return cluster


def test_view_key_put_costs_at_most_95_events_drained_to_idle():
    """Nothing ever writes ``payload`` here, so the copy is empty: what
    this budget pins is that CopyData's Get is gone (81.4 measured)."""

    def operation(handle, rng, i):
        return handle.put("T", rng.randrange(200),
                          {"sec": f"s{rng.randrange(1000)}"})

    assert events_per_op(_view_cluster(), operation) <= 95


def test_view_key_and_payload_put_costs_at_most_105_events_drained_to_idle():
    """Every move after a key's first copies a ``payload`` cell, so
    CopyData's Put is gone too (94.8 measured)."""

    def operation(handle, rng, i):
        return handle.put("T", rng.randrange(200),
                          {"sec": f"s{rng.randrange(1000)}",
                           "payload": f"p{i}"})

    assert events_per_op(_view_cluster(), operation) <= 105


def test_repeat_view_key_put_by_the_same_coordinator_costs_at_most_79_events():
    """Each client re-keys five rows of its own, so nine moves in ten
    find the live row held by their coordinator and make no view-table
    Get (72.1 measured; 81.4 when every move walks)."""

    def operation(handle, rng, i):
        return handle.put("T", (handle.client_id, i % 5),
                          {"sec": f"s{rng.randrange(1000)}"})

    assert events_per_op(_view_cluster(), operation) <= 79
