"""Chaos injection: random node failures during a running workload.

A :class:`ChaosMonkey` repeatedly takes a random node down for a random
interval and brings it back, never exceeding ``max_down`` simultaneous
failures.  With ``max_down=1`` on the paper's 4-node / N=3 topology, a
majority of every replica set stays reachable, so quorum operations and
view maintenance must keep working throughout — the chaos tests assert
exactly that.

Two targeted modes supplement the random loop:

- ``targets`` restricts random victims to specific node ids — e.g. only
  the nodes a workload uses as coordinators, stressing the propagation
  driver rather than replica availability.
- :meth:`crash_during_propagation` arms a deterministic hook inside
  each outbox record's process: matching propagations lose their
  coordinator mid-flight (the work vanishes with the coordinator's
  volatile state), which is the failure mode the repair subsystem
  (:mod:`repro.repair`) detects and heals.  Pass ``auto=False`` to build
  a monkey that only performs such targeted crashes, with no random
  background failures.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, List, Optional

from repro.sim.latency import LatencyModel, Uniform

__all__ = ["ChaosMonkey"]


class ChaosMonkey:
    """Randomly fails and recovers nodes until stopped."""

    def __init__(self, cluster, rng: Optional[random.Random] = None,
                 pause: Optional[LatencyModel] = None,
                 downtime: Optional[LatencyModel] = None,
                 max_down: int = 1,
                 targets: Optional[Iterable[int]] = None,
                 auto: bool = True):
        if max_down < 1 or max_down >= cluster.config.nodes:
            raise ValueError(
                "max_down must be >= 1 and leave at least one node up")
        self.cluster = cluster
        self.rng = rng or cluster.streams.stream("chaos")
        self.pause = pause or Uniform(20.0, 60.0)
        self.downtime = downtime or Uniform(10.0, 40.0)
        self.max_down = max_down
        self.targets = None if targets is None else sorted(set(targets))
        if self.targets is not None:
            for node_id in self.targets:
                cluster.node(node_id)  # validates the id
        self.kills = 0
        self.recoveries = 0
        self._stopped = False
        self._down: List[int] = []
        self._process = (cluster.env.process(self._loop(), name="chaos-monkey")
                         if auto else None)

    def stop(self) -> None:
        """Stop injecting failures; currently-down nodes are recovered."""
        self._stopped = True
        for node_id in list(self._down):
            self._revive_now(node_id)

    @property
    def down_nodes(self) -> List[int]:
        """Node ids currently failed by this monkey."""
        return list(self._down)

    def crash_during_propagation(self, view_name: Optional[str] = None,
                                 base_key=None, count: int = 1,
                                 downtime: Optional[float] = None,
                                 match: Optional[Callable] = None):
        """Deterministically lose the next ``count`` matching propagations.

        Arms a crash hook in the cluster's view manager: when an
        asynchronous propagation matching the filters (``view_name``,
        ``base_key``, and/or ``match(view, base_key, base_ts) -> bool``)
        is about to run, its coordinator node is failed and the
        propagation is counted as lost (``ViewManager.lost_propagations``)
        — the base Put was already acknowledged, so the view silently
        diverges.  The node recovers after ``downtime`` ms (default: a
        sample from this monkey's downtime model); the node kill is
        skipped (the propagation is still lost) if it would take the last
        alive node down.

        Returns the armed hook; pass it to
        ``ViewManager.remove_crash_hook`` to disarm early.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        manager = self.cluster.view_manager
        if manager is None:
            raise ValueError("cluster has no view manager; create a view "
                             "before arming propagation crashes")
        state = {"remaining": count}

        def hook(coordinator, view, key, base_ts) -> bool:
            if self._stopped or state["remaining"] <= 0:
                return False
            if view_name is not None and view.name != view_name:
                return False
            if base_key is not None and key != base_key:
                return False
            if match is not None and not match(view, key, base_ts):
                return False
            state["remaining"] -= 1
            if state["remaining"] <= 0:
                manager.remove_crash_hook(hook)
            node_id = coordinator.node.node_id
            alive = [node.node_id for node in self.cluster.nodes
                     if not node.is_down]
            if node_id in alive and len(alive) > 1:
                self.cluster.fail_node(node_id)
                if node_id not in self._down:
                    self._down.append(node_id)
                self.kills += 1
                self.cluster.env.process(self._revive(node_id, downtime),
                                         name="chaos-revive")
            return True

        manager.add_crash_hook(hook)
        return hook

    def _loop(self):
        env = self.cluster.env
        while not self._stopped:
            yield env.timeout(self.pause.sample(self.rng))
            if self._stopped:
                break
            if len(self._down) < self.max_down:
                alive = [node.node_id for node in self.cluster.nodes
                         if not node.is_down]
                candidates = [node_id for node_id in alive
                              if self.targets is None
                              or node_id in self.targets]
                if candidates and len(alive) > 1:
                    victim = self.rng.choice(candidates)
                    self.cluster.fail_node(victim)
                    self._down.append(victim)
                    self.kills += 1
                    env.process(self._revive(victim), name="chaos-revive")
        # On stop: heal everything we broke (stop() already does this for
        # direct calls; this covers the loop noticing the flag first).
        for node_id in list(self._down):
            self._revive_now(node_id)

    def _revive(self, node_id: int, downtime: Optional[float] = None):
        delay = (downtime if downtime is not None
                 else self.downtime.sample(self.rng))
        yield self.cluster.env.timeout(delay)
        self._revive_now(node_id)

    def _revive_now(self, node_id: int) -> None:
        """Recover ``node_id`` if this monkey still owes it a revival.

        Safe against the two lifecycle races the scenario harness
        provokes: a node someone else already recovered (skip the
        cluster call — ``recover_node`` on an up node would re-trigger
        hint replay — but settle our books), and a pending ``_revive``
        firing after :meth:`stop` already revived everything (no-op:
        the node is no longer in ``_down``).
        """
        if node_id not in self._down:
            return
        self._down.remove(node_id)
        if self.cluster.node(node_id).is_down:
            self.cluster.recover_node(node_id)
        self.recoveries += 1
