"""Kernel events per client op: a deterministic count, not a wall clock.

A remote RPC is three timers (request delay, service time, reply
delay); a loopback — a coordinator reading or writing its own replica
in process — is its CPU charge alone.  A quorum round, a reply, a
queued CPU request and a write's deferred CPU work cost no event of
their own.  These budgets fail the moment a per-RPC process, a
per-round timer, a grant event, an event per deferred charge or a link
on the loopback comes back:

- an R = 1 Get is 2 client hops + 1 coordinator charge + one RPC,
  whatever N is: 6 events when the replica asked is another node, 4
  when the coordinator is a replica and reads its own copy (12 while
  the Get was broadcast to all three); a Put at N = 3 is 2 + 1 + 3 x 3
  = 12 from a coordinator that holds no replica, 10 from one that does
  (its own write is 1).  On four nodes a coordinator is a replica of
  three keys in four, so a 50/50 mix is (4.5 + 10.5) / 2 = 7.5 (7.53
  measured), plus one hedge-queue timer per ``READ_HEDGE`` of traffic.
  Each Put cost three more while every replica write's deferred CPU
  work was an event of its own (9.03 measured), 10.5 with that and
  every RPC crossing a link, 13.5 with the broadcast Get, and 26-30
  with a ``Process`` per RPC, a timer per round and a grant per queued
  request;
- an R = 1 view Get is a base Get: 2 client hops + 1 coordinator
  charge + one whole-row RPC, 6 events or 4, so 0.75 x 4 + 0.25 x 6 =
  4.5 on four nodes (4.52 measured; 5.52 while the view read charged
  the coordinator a second time);
- a view-key Put drained to idle (base Get + Put, outbox record, lock
  round trips, one-hop chain walk, two view writes: the stale pointer,
  then the new live row) is five quorum rounds — ~14 RPCs, the walk's
  majority Get asking two replicas.  A row's first Put is three — 9
  RPCs: its chain is pristine, so its record will take the chain's
  first turn, which can only find the virtual NULL anchor and makes no
  walk, and the Put skips Algorithm 1's Get, whose guesses only a walk
  reads (the sequencer peek that tells it so travels during the
  coordinator's charge, no event of its own).  Most Puts here are a
  key's first: ~39.0 events (44.4 while a first Put made that Get,
  48.8 while it also walked, ~57 with
  that and a third view write unmarking the new row, 68.8 with that
  and an event per write's deferred work, ~78 with that and every RPC
  crossing a link, 81 with the broadcast Get, ~91 with CopyData's own
  Get, and 200-248 before the RPC path lost its heap hops).  A Put that
  also writes a materialized column costs the same: line 12's cells
  ride the line-4 Put, merged over the copied ones by LWW (44.4 events
  while a first Put made Algorithm 1's Get, 57.2 events and 17 RPCs a
  Put while line 12 was also a round of its own and a first Put walked,
  ~66 with the unmark, 80.2 with that and an event per deferred charge,
  ~91 with that over links only, ~108 with CopyData's Get and Put);
- the same view-key Put through the coordinator that last moved the row
  (each client re-keying rows of its own) skips the chain walk's Get
  and, since its record will not read them, Algorithm 1's base Get
  that collects the walk's guesses: three quorum rounds — ~9 RPCs, all
  writes — ~38.2 events (39.1 while each row's first Put made that Get
  and a holder's Put waited out the sequencer peek after its charge,
  40.5 while each row's first Put also walked, ~44 with the base Get,
  ~52 with that and the unmark, 64.3 with that and an event per
  deferred charge, ~72 with that over links only).

Each test's name keeps the budget it was given when every RPC crossed a
link and every deferred charge was an event; the bound it asserts is
the tighter one of today.
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


def test_base_table_mix_costs_at_most_12_events_per_op():
    """The Get half of the mix asks one replica, a coordinator that
    holds a copy serves itself in process, and a replica write is its
    charge alone (7.53 measured; 9.03 with an event per deferred
    charge, 10.5 with that and every RPC over a link)."""
    cluster = Cluster(ClusterConfig(seed=5))
    cluster.create_table("T")

    def operation(handle, rng, i):
        key = rng.randrange(40)
        if i % 2:
            return handle.get("T", key, ("payload",))
        return handle.put("T", key, {"payload": f"p{i}"})

    assert events_per_op(cluster, operation) <= 8.5


def _view_cluster():
    cluster = Cluster(ClusterConfig(seed=5))
    cluster.create_table("T")
    cluster.create_view(ViewDefinition("V", "T", "sec", ("payload",)))
    return cluster


def test_view_get_costs_at_most_5_events_per_op():
    """Reads of a loaded view (200 rows over 20 view keys): one
    coordinator charge per request, as for a base Get (4.52 measured,
    5.52 with a second charge)."""
    cluster = _view_cluster()
    loader = cluster.sync_client()
    for key in range(200):
        loader.put("T", key, {"sec": f"s{key % 20}", "payload": f"p{key}"})
    loader.settle()

    def operation(handle, rng, i):
        return handle.get_view("V", f"s{rng.randrange(20)}", ("payload",))

    assert events_per_op(cluster, operation) <= 5.0


def test_view_key_put_costs_at_most_95_events_drained_to_idle():
    """Nothing ever writes ``payload`` here, so the copy is empty: what
    this budget pins is that CopyData's Get and the unmark are gone, and
    that a row's first Put makes no walk and no base Get (39.0
    measured, 44.4 with the base Get, 48.8 with that and the walk, 57.2
    with that and the unmark, 68.8 with that and an event per deferred
    charge, 77.7 with that and every RPC over a link)."""

    def operation(handle, rng, i):
        return handle.put("T", rng.randrange(200),
                          {"sec": f"s{rng.randrange(1000)}"})

    assert events_per_op(_view_cluster(), operation) <= 40.5


def test_view_key_and_payload_put_costs_at_most_105_events_drained_to_idle():
    """Every move after a key's first copies a ``payload`` cell, so
    CopyData's Put is gone too, and every Put's own ``payload`` rides
    its line-4 Put, so line 12 is (39.2 measured; 44.4 with a first
    Put's base Get, 57.2 with that, line 12 in a round of its own and a
    first Put's walk, 65.7 with that and the unmark, 80.2 with that and
    an event per deferred charge, 90.4 with that and every RPC over a
    link)."""

    def operation(handle, rng, i):
        return handle.put("T", rng.randrange(200),
                          {"sec": f"s{rng.randrange(1000)}",
                           "payload": f"p{i}"})

    assert events_per_op(_view_cluster(), operation) <= 40.5


def test_repeat_view_key_put_by_the_same_coordinator_costs_at_most_79_events():
    """Each client re-keys five rows of its own, so nine moves in ten
    find the live row held by their coordinator and make neither a
    view-table Get nor Algorithm 1's base Get, and each row's first Put
    finds its chain pristine, makes no base Get, and takes its chain's
    first turn, which walks nowhere (38.2 measured; 39.1 with that base
    Get and a holder's Put waiting out the sequencer peek after its
    charge, 40.5 with a first Put's walk, 43.9 with that and every
    move's base Get, 52.4 with that and the unmark, 64.3 with that and
    an event per deferred charge, 71.9 with that and every RPC over a
    link; 48.9 when every move walks)."""

    def operation(handle, rng, i):
        return handle.put("T", (handle.client_id, i % 5),
                          {"sec": f"s{rng.randrange(1000)}"})

    assert events_per_op(_view_cluster(), operation) <= 39.5
