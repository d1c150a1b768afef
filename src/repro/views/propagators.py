"""Dedicated update propagators (paper Section IV-F, second alternative).

Instead of letting every update coordinator propagate its own updates
(guarded by locks), responsibility can be transferred to a set of
dedicated propagators such that *one* propagator handles all propagations
for any given base row — consistent hashing of the base-row key picks the
propagator.  Serializing per base row then falls out of a per-key job
chain; no lock service is needed.

Here every storage node hosts one propagator; jobs are forwarded over the
network (one replica hop) and execute with the hosting node as the view
coordinator, charging its CPU.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Tuple

from repro.common.hashing import TokenRing
from repro.sim.kernel import Event

__all__ = ["PropagatorPool"]

# Poll interval while a propagator's host node is down.
_DOWN_POLL_INTERVAL = 10.0


class PropagatorPool:
    """Per-base-row serialized propagation executors."""

    def __init__(self, env, network, coordinators):
        self.env = env
        self.network = network
        # One per node, indexed by node id: the propagators' hosts.
        self.coordinators = coordinators
        self.ring = TokenRing([c.node.node_id for c in coordinators],
                              salt="propagators")
        # Tail of the job chain per (view, base key): the next job for the
        # same key waits for the previous one's completion.
        self._tails: Dict[Tuple[str, Hashable], Event] = {}
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
        chain_key = (view_name, base_key)
        completion = self.env.event()
        previous_tail = self._tails.get(chain_key)
        self._tails[chain_key] = completion
        self.env.process(
            self._run(src_node_id, chain_key, previous_tail, job, completion),
            name=f"propagator:{view_name}:{base_key!r}")
        return completion

    def _run(self, src_node_id: int, chain_key, previous_tail, job,
             completion: Event):
        view_name, base_key = chain_key
        node_id = self.propagator_for(view_name, base_key)
        # Network hop: the base coordinator hands the job off.
        if node_id != src_node_id:
            yield self.env.timeout(
                self.network.one_way_delay(src_node_id, node_id))
        # Per-key serialization: wait for the previous job on this key.
        # A failed predecessor must not wedge the chain.
        if previous_tail is not None:
            try:
                yield previous_tail
            except Exception:
                pass
        # If the hosting node is down, park until it recovers (a real
        # deployment would re-home the propagator; parking preserves the
        # serialization guarantee with much less machinery).
        coordinator = self.coordinators[node_id]
        while coordinator.node.is_down:
            yield self.env.timeout(_DOWN_POLL_INTERVAL)
        try:
            result = yield self.env.process(job(coordinator))
        except Exception as exc:
            if self._tails.get(chain_key) is completion:
                del self._tails[chain_key]
            completion.fail(exc)
            return
        self.jobs_completed += 1
        if self._tails.get(chain_key) is completion:
            del self._tails[chain_key]
        completion.succeed(result)
