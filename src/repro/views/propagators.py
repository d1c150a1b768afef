"""Dedicated update propagators (paper Section IV-F, second alternative).

Instead of letting every update coordinator propagate its own updates
(guarded by locks), responsibility can be transferred to a set of
dedicated propagators such that *one* propagator handles all propagations
for any given base row — consistent hashing of the base-row key picks the
propagator.  Serializing per base row then falls out of the propagator
running a row's jobs one at a time, in the order they were handed over.

Here every storage node hosts one propagator; jobs are forwarded over the
network (one replica hop) and execute with the hosting node as the view
coordinator, charging its CPU.  A row's queue is the lock service's
one-token FIFO for that row (``views/locks.py``), taken with no round
trip the moment the job is handed over: the propagator is the lock
service's only client, so its turn order is the submit order.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.common.hashing import TokenRing
from repro.sim.kernel import Event

__all__ = ["PropagatorPool"]

# Poll interval while a propagator's host node is down.
_DOWN_POLL_INTERVAL = 10.0


class PropagatorPool:
    """Per-base-row serialized propagation executors."""

    def __init__(self, env, network, coordinators, locks):
        self.env = env
        self.network = network
        # One per node, indexed by node id: the propagators' hosts.
        self.coordinators = coordinators
        self.ring = TokenRing([c.node.node_id for c in coordinators],
                              salt="propagators")
        # The per-row FIFO (views/locks.py LockService).
        self.locks = locks
        self.jobs_submitted = 0
        self.jobs_completed = 0

    def propagator_for(self, view_name: str, base_key: Hashable) -> int:
        """The node id hosting the propagator for this base row."""
        return self.ring.primary((view_name, base_key))

    def submit(self, src_node_id: int, view_name: str, base_key: Hashable,
               job: Callable) -> Event:
        """Forward a propagation job to the responsible propagator.

        ``job(coordinator)`` must return a generator performing the
        propagation with the given coordinator.  Returns a completion
        event that fires with the job's result (or its exception).
        """
        self.jobs_submitted += 1
        completion = self.env.event()
        turn = self.locks.request(view_name, base_key)
        self.env.process(
            self._run(src_node_id, view_name, base_key, turn, job,
                      completion),
            name=f"propagator:{view_name}:{base_key!r}")
        return completion

    def _run(self, src_node_id: int, view_name: str, base_key: Hashable,
             turn: Event, job, completion: Event):
        node_id = self.propagator_for(view_name, base_key)
        # Network hop: the base coordinator hands the job off.
        if node_id != src_node_id:
            yield self.env.timeout(
                self.network.one_way_delay(src_node_id, node_id))
        # Per-key serialization: the row's earlier jobs run first.
        yield turn
        # If the hosting node is down, park until it recovers (a real
        # deployment would re-home the propagator; parking preserves the
        # serialization guarantee with much less machinery).
        coordinator = self.coordinators[node_id]
        while coordinator.node.is_down:
            yield self.env.timeout(_DOWN_POLL_INTERVAL)
        # A failed job must not wedge the row: its successor runs.
        try:
            result = yield from job(coordinator)
        except Exception as exc:
            completion.fail(exc)
        else:
            self.jobs_completed += 1
            completion.succeed(result)
        self.locks.release(view_name, base_key)
