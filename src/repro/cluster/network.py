"""Simulated network: latency, loss, partitions, RPC plumbing.

A remote ``Network.rpc`` is three timers: the request's one-way delay,
the service time the node's handler books on its CPU, and the response's
return delay; when the third one fires, the response goes straight into
the :class:`~repro.cluster.coordinator.ResponseCollector` the caller
handed over.  Each timer is a callback entry, the one
``Environment.call_at`` would make, pushed onto the heap by the frame
that arms it (one frame per hop), so the RPC's one object on the heap is
its call record; there is no reply event.  If the destination is down,
partitioned away, or the message is lost, the collector simply never
hears back — exactly like a dropped packet; its quorum deadline covers
it.  A handler's exception is handed to the collector instead of a
response, which fails every waiter.  A reply that arrives also records,
in ``reply_stamps``, the instant its replica's CPU would next fall free
as of the handler's return: the load a replica piggybacks on its
replies, which coordinators rank replicas by.

The host path from send to ack is one pass per layer.  Each hop's delay
is one call, the link's draw bound to the network's stream
(``LatencyModel.bind``: the floats ``sample`` would give, draw for
draw), made by ``rpc`` and ``_Call.step`` themselves, as a client's hop
makes its own (``ClientHandle._hop``); each goes through
:meth:`Network.one_way_delay` only while a gray slowdown is armed.  A
drop check is made inline, in the timer that delivers or hands over the
message: it looks at the partitions only when one exists, and asks
``_lost`` every time, so that loss has one seam.  The destination's
``dispatch`` finds the handler's ``(cost, finish)`` pair of plain
functions in one table lookup, and its CPU prices the charge in the one
frame that books it (``Resource.book``).

A request a node sends to itself is a *loopback*, served in process the
way a Cassandra coordinator reads and applies its own replica (its local
read or mutation stage, not the messaging layer): the same handler and
the same CPU charge, but no link, so it is the charge's timer alone.  It
draws no delay, and loss, partitions and link slowdowns cannot touch it;
a down node still drops it.
"""

from __future__ import annotations

import random
from heapq import heappush
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Set, Tuple

from repro.sim.kernel import NORMAL, Environment
from repro.sim.latency import LatencyModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.cluster.coordinator import ResponseCollector
    from repro.cluster.node import StorageNode

__all__ = ["Network"]

# Sentinel endpoint id for client machines (clients sit outside the ring).
CLIENT = -1


class Network:
    """Message fabric connecting clients and storage nodes."""

    def __init__(
        self,
        env: Environment,
        client_link: LatencyModel,
        replica_link: LatencyModel,
        rng: random.Random,
    ):
        self.env = env
        self.client_link = client_link
        self.replica_link = replica_link
        self._rng = rng
        # Each link's delay draw, bound to the network's stream: the
        # floats ``link.sample(rng)`` would give, in fewer frames.
        self._client_draw = client_link.bind(rng)
        self._replica_draw = replica_link.bind(rng)
        # Probability that any single message is silently lost in
        # transit: a runtime fault, 0 until a caller sets it.
        self.message_loss = 0.0
        self._partitions: Set[FrozenSet[int]] = set()
        # Gray failures: per-endpoint delay inflation factors (slow NIC,
        # overloaded switch port) — the node answers, just late.
        self._slowdowns: Dict[int, float] = {}
        # (sender, replica) -> the replica's ``cpu.free_at`` as its
        # handler returned, stamped on its last reply that reached the
        # sender: what a coordinator knows of a peer's queue.
        self.reply_stamps: Dict[Tuple[int, int], float] = {}
        # Counters for observability/tests.
        self.messages_sent = 0
        self.messages_dropped = 0

    # -- partitions ----------------------------------------------------------

    def partition(self, a: int, b: int) -> None:
        """Block all traffic between endpoints ``a`` and ``b``."""
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: int, b: int) -> None:
        """Remove the partition between ``a`` and ``b`` if present."""
        self._partitions.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        """Remove every partition."""
        self._partitions.clear()

    def is_partitioned(self, a: int, b: int) -> bool:
        """True if traffic between ``a`` and ``b`` is blocked."""
        partitions = self._partitions
        return bool(partitions) and frozenset((a, b)) in partitions

    def active_partitions(self) -> List[Tuple[int, int]]:
        """All currently blocked endpoint pairs, as sorted tuples.

        The scenario harness's ``ClusterHealed`` invariant uses this to
        assert adversaries cleaned up after themselves."""
        return sorted(tuple(sorted(pair)) for pair in self._partitions)

    # -- gray failures -------------------------------------------------------

    def set_slowdown(self, endpoint_id: int, factor: float) -> None:
        """Inflate every message delay to/from ``endpoint_id`` by ``factor``.

        Models a *gray* failure: the endpoint stays up and keeps
        answering, but its link latency is multiplied — the failure mode
        health checks miss because nothing is actually down.  ``factor``
        must be >= 1; messages through two slowed endpoints compound.
        """
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {factor}")
        self._slowdowns[endpoint_id] = factor

    def clear_slowdown(self, endpoint_id: int) -> None:
        """Remove the delay inflation for ``endpoint_id`` if present."""
        self._slowdowns.pop(endpoint_id, None)

    def clear_all_slowdowns(self) -> None:
        """Remove every endpoint slowdown."""
        self._slowdowns.clear()

    def slowdown_of(self, endpoint_id: int) -> float:
        """The current delay inflation factor for ``endpoint_id``."""
        return self._slowdowns.get(endpoint_id, 1.0)

    # -- delays ----------------------------------------------------------------

    def one_way_delay(self, src_id: int, dst_id: int) -> float:
        """Sample the one-way delay for a message between two endpoints
        (an RPC hop and a client hop draw their link's bound draw
        themselves while no endpoint is slowed)."""
        delay = (self._client_draw if CLIENT in (src_id, dst_id)
                 else self._replica_draw)()
        slowdowns = self._slowdowns
        if slowdowns:
            delay *= (slowdowns.get(src_id, 1.0)
                      * slowdowns.get(dst_id, 1.0))
        return delay

    def _lost(self) -> bool:
        return self.message_loss > 0 and self._rng.random() < self.message_loss

    # -- RPC -------------------------------------------------------------------

    def rpc(self, src_id: int, dst: "StorageNode",
            collector: "ResponseCollector", request: Any) -> None:
        """Send ``request`` to ``dst``; its response goes to
        ``collector`` (``collector.receive``), a handler's exception to
        ``collector.fail``.

        Nothing is heard when the request or response is dropped (down
        node, partition, loss).  ``request`` stays the last positional
        argument: a tracer wrapping this method and
        ``StorageNode.dispatch`` pairs the two by it.

        A delivered remote RPC costs three kernel events, the timers
        that advance the clock (see :class:`_Call`): the forward delay
        is drawn here, at send; the return delay when the handler
        finishes.  A loopback (``src_id`` is ``dst``'s own id) costs one,
        its CPU charge: the request is dispatched and its charge booked
        here, inside the caller, and the handler's ``finish`` runs and
        its response reaches the collector from the charge's timer, so
        nothing is applied or woken from inside the caller.  Either way
        it counts in ``messages_sent``: requests handed to a replica.
        """
        self.messages_sent += 1
        call = _Call(self, src_id, dst, collector, request)
        if call.local:
            call.deliver()
        else:
            delay = (self.one_way_delay(src_id, dst.node_id)
                     if self._slowdowns else self._replica_draw())
            env = self.env
            env._eid += 1
            heappush(env._heap,
                     (env._now + delay, NORMAL, env._eid, None, call.deliver))


class _Call:
    """One RPC in flight, and its only object on the heap: its bound
    methods are its timers, each pushed under the key ``call_at`` would
    take by the method that arms it.

    ``deliver`` runs when the request's delay has passed (a loopback's
    at send): it makes the drop checks itself, calls
    ``dst.dispatch(request)`` for the handler's ``(cost, finish)`` and
    books ``cost`` on the node's CPU (``dst.cpu.book``, which prices
    it), arming ``step`` at the charge's end (RPCs are the most common
    unit of work in the simulation; a ``Process``, a generator or an
    event per message would add objects and steps that advance no
    clock).  ``step`` calls ``finish(dst, request)`` for the response
    and arms ``arrive`` at the end of its return delay.  ``arrive``
    repeats the partition and loss checks and hands the response to
    ``collector``, so whoever waits there (the coordinator) continues
    inside the same kernel event.  A remote reply carries the replica's
    CPU free-at as of its handler's return, recorded in
    ``Network.reply_stamps`` when the reply arrives (a dropped reply
    records nothing).  A loopback crosses no link: its only drop check
    is the down node, ``step`` hands the response over itself, and it
    stamps nothing — a node reads its own CPU.  A handler that raises,
    in ``dispatch`` or in ``finish``, hands its exception to
    ``collector.fail`` instead.
    """

    __slots__ = ("network", "src_id", "dst", "collector", "request",
                 "finish", "local", "response", "stamp")

    def __init__(self, network: Network, src_id: int, dst: "StorageNode",
                 collector: "ResponseCollector", request: Any):
        self.network = network
        self.src_id = src_id
        self.dst = dst
        self.collector = collector
        self.request = request
        self.local = src_id == dst.node_id

    def deliver(self) -> None:
        network = self.network
        dst = self.dst
        if dst.is_down or (not self.local and (
                (network._partitions
                 and network.is_partitioned(self.src_id, dst.node_id))
                or network._lost())):
            network.messages_dropped += 1
            return
        try:
            cost, self.finish = dst.dispatch(self.request)
        except Exception as exc:  # bad request type, etc.
            self.collector.fail(exc)
            return
        env = network.env
        env._eid += 1
        heappush(env._heap,
                 (dst.cpu.book(cost), NORMAL, env._eid, None, self.step))

    def step(self) -> None:
        try:
            response = self.finish(self.dst, self.request)
        except Exception as exc:  # surface handler errors to the caller
            self.collector.fail(exc)
            return
        if self.local:
            self.collector.receive(response)
            return
        network = self.network
        self.stamp = self.dst.cpu.free_at
        self.response = response
        delay = (network.one_way_delay(self.dst.node_id, self.src_id)
                 if network._slowdowns else network._replica_draw())
        env = network.env
        env._eid += 1
        heappush(env._heap,
                 (env._now + delay, NORMAL, env._eid, None, self.arrive))

    def arrive(self) -> None:
        network = self.network
        if ((network._partitions
             and network.is_partitioned(self.src_id, self.dst.node_id))
                or network._lost()):
            network.messages_dropped += 1
            return
        network.reply_stamps[self.src_id, self.dst.node_id] = self.stamp
        self.collector.receive(self.response)
