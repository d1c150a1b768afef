"""Composable adversaries: the one fault injector.

An :class:`Adversary` is a reusable fault-injection strategy a
:class:`~repro.scenarios.runner.Scenario` starts alongside its workload
and stops before quiescence.  Every fault it deals goes through one set
of books on the base class:

- **One method per fault kind.**  :meth:`~Adversary.crash` a node for a
  downtime, :meth:`~Adversary.cut` a node pair, :meth:`~Adversary.slow`
  a node, :meth:`~Adversary.skew` a client clock,
  :meth:`~Adversary.burst` the arrival rate, and
  :meth:`~Adversary.lose` the next N propagations (the paper's §VIII
  failure: the coordinator crashes between acking a base Put and
  propagating it).  Each method inflicts the fault, counts it in
  ``injections``, remembers how to heal it, and schedules that heal.
- **One** :meth:`~Adversary.stop`.  It disarms every propagation hook
  the adversary armed and heals exactly what the adversary still holds.
  A crashed node someone else already recovered is not recovered twice
  (``recover_node`` on an up node would re-trigger hint replay).  The
  runner's ``ClusterHealed`` invariant checks that nothing was missed.

- **One loop.**  A subclass sets ``pause`` (a latency model) and
  implements ``_strike(scenario, rng)``; the base class's loop waits a
  ``pause`` sample, strikes, and waits out the process the strike
  returns (a revival, a burst's end) before its next pause, until
  :meth:`~Adversary.stop`.  An adversary with no ``pause`` starts no
  process.

Subclasses only choose *when* and *what*, drawing every random value
from a dedicated :class:`~repro.sim.rng.RandomStreams` stream derived
from the adversary's label — so a scenario is bit-for-bit reproducible
from the cluster seed, and stacking adversaries never perturbs each
other's random choices.  The provided set covers the failure modes the
paper's design must tolerate:

``PartitionStorm``
    Random transient network cuts between node pairs.
``GrayFailure``
    Slow-node gray failures: a node's CPU service times and link
    delays are inflated while it stays up and keeps answering — the
    failure health checks miss.
``ClockSkew``
    Client wall clocks drift by random offsets, so client-supplied
    timestamps (the paper's update ordering) invert relative to issue
    order.
``CrashLoop``
    One node — by default the scrub coordinator — crash-loops: short
    uptime, crash, short downtime, repeat.
``CrashStorm``
    Random node crashes across the cluster, at most ``max_down`` of
    them at once, optionally only among ``targets``.
``BurstArrivals``
    Open-loop arrival-rate bursts: periodically multiplies the
    workload's arrival rate (via ``Scenario.arrival_scale``), driving
    the propagation backlog toward its backpressure bound.

Experiments that run no :class:`~repro.scenarios.runner.Scenario` arm
the §VIII loss on a bare cluster with :func:`lose_propagations`.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.sim.latency import LatencyModel, Uniform

__all__ = [
    "Adversary",
    "PartitionStorm",
    "GrayFailure",
    "ClockSkew",
    "CrashLoop",
    "CrashStorm",
    "BurstArrivals",
    "lose_propagations",
]


class Adversary:
    """Base class: a start/stop fault injector, its books and its loop."""

    name = "adversary"
    # Time between strikes; None (a bare adversary) starts no loop.
    pause: Optional[LatencyModel] = None

    def __init__(self):
        self._stopped = False
        # Unique per scenario run; assigned by Scenario.run() before
        # start() so stacked same-type adversaries get distinct streams.
        self.label = self.name
        self.injections = 0
        # What this adversary still holds: fault key -> the call that
        # heals it (insertion order is the order stop() heals in).
        self._held: Dict[Tuple, Callable[[], None]] = {}
        # Propagation hooks armed by lose(): (view manager, hook).
        self._hooks: List[Tuple[Any, Callable]] = []

    def rng(self, scenario):
        """This adversary's dedicated deterministic random stream."""
        return scenario.cluster.streams.stream(f"adversary:{self.label}")

    def start(self, scenario) -> None:
        """Begin injecting faults: a paced adversary starts its loop."""
        self._stopped = False
        if self.pause is not None:
            scenario.cluster.env.process(self._loop(scenario),
                                         name=f"{self.label}-loop")

    def _loop(self, scenario):
        """The one pacing loop: wait a pause, strike, wait out what the
        strike returned, repeat until :meth:`stop`."""
        env = scenario.cluster.env
        rng = self.rng(scenario)
        while not self._stopped:
            yield env.timeout(self.pause.sample(rng))
            if self._stopped:
                return
            struck = self._strike(scenario, rng)
            if struck is not None:
                yield struck

    def _strike(self, scenario, rng):
        """Deal one round of faults, drawing only from ``rng``; return a
        process the loop waits out before its next pause, or None."""
        raise NotImplementedError

    def stop(self, scenario=None) -> None:
        """Stop injecting, disarm every hook and heal what is still held."""
        self._stopped = True
        for manager, hook in self._hooks:
            manager.remove_crash_hook(hook)
        self._hooks.clear()
        for key in list(self._held):
            self._heal(key)

    def describe(self) -> str:
        """One-line summary for scenario reports."""
        return self.label

    # -- the books -----------------------------------------------------------

    def holds(self, kind: str) -> int:
        """How many faults of ``kind`` this adversary holds right now."""
        return sum(1 for key in self._held if key[0] == kind)

    def _inflict(self, env, key: Tuple, heal: Callable[[], None],
                 delay=None):
        """Book one dealt fault; returns its heal process, if any.

        ``delay`` is a duration in ms, or a callable drawn when the heal
        process starts; None holds the fault until :meth:`stop`.
        """
        self.injections += 1
        self._held[key] = heal
        if delay is None:
            return None
        return env.process(self._heal_after(env, key, delay),
                           name=f"{self.label}-heal")

    def _heal_after(self, env, key: Tuple, delay):
        if callable(delay):
            delay = delay()
        yield env.timeout(delay)
        self._heal(key)

    def _heal(self, key: Tuple) -> None:
        heal = self._held.pop(key, None)
        if heal is not None:
            heal()

    # -- one method per fault kind --------------------------------------------

    def crash(self, cluster, node_id: int, downtime):
        """Fail ``node_id`` and recover it after ``downtime``.

        Skipped (returns None) when the node is already down or is the
        last one up; otherwise returns the heal process.
        """
        alive = [node.node_id for node in cluster.nodes if not node.is_down]
        if node_id not in alive or len(alive) < 2:
            return None
        cluster.fail_node(node_id)

        def revive() -> None:
            if cluster.node(node_id).is_down:
                cluster.recover_node(node_id)

        return self._inflict(cluster.env, ("crash", node_id), revive,
                             downtime)

    def cut(self, cluster, a: int, b: int, duration):
        """Partition nodes ``a`` and ``b`` for ``duration`` ms.

        Skipped (returns None) while this adversary already holds the
        cut; otherwise returns the heal process.
        """
        key = ("cut", (a, b))
        if key in self._held:
            return None
        cluster.partition(a, b)
        return self._inflict(cluster.env, key,
                             partial(cluster.heal_partition, a, b), duration)

    def slow(self, cluster, node_id: int, cpu_factor: float,
             link_factor: float, duration):
        """Gray-fail ``node_id`` for ``duration`` ms.

        Skipped (returns None) while this adversary already slows the
        node; otherwise returns the heal process.
        """
        key = ("slow", node_id)
        if key in self._held:
            return None
        cluster.slow_node(node_id, cpu_factor=cpu_factor,
                          link_factor=link_factor)
        return self._inflict(cluster.env, key,
                             partial(cluster.restore_node_speed, node_id),
                             duration)

    def skew(self, cluster, client_id: int, offset_ms: float) -> None:
        """Skew a client's clock by ``offset_ms`` until :meth:`stop`."""
        cluster.set_clock_skew(client_id, offset_ms)
        self._inflict(cluster.env, ("skew", client_id),
                      partial(cluster.set_clock_skew, client_id, 0.0))

    def burst(self, scenario, factor: float, duration):
        """Multiply the scenario's arrival rate by ``factor`` for
        ``duration`` ms; returns the heal process (None while a burst of
        this adversary is still on)."""
        key = ("burst",)
        if key in self._held:
            return None
        scenario.arrival_scale *= factor

        def end() -> None:
            scenario.arrival_scale /= factor

        return self._inflict(scenario.cluster.env, key, end, duration)

    def lose(self, cluster, count: int, downtime: float, *,
             view_name: Optional[str] = None,
             base_key: Optional[Hashable] = None,
             match: Optional[Callable] = None):
        """Lose the next ``count`` matching propagations (§VIII).

        Arms a crash hook in the cluster's view manager: when an
        asynchronous propagation matching the filters (``view_name``,
        ``base_key``, and/or ``match(view, base_key, base_ts) -> bool``)
        is about to run, it is counted as lost
        (``ViewManager.lost_propagations``) — the base Put was already
        acknowledged, so the view silently diverges — and its coordinator
        is :meth:`crash`-ed for ``downtime`` ms (skipped if that would
        take the last node down).  The hook disarms itself after
        ``count`` losses, and :meth:`stop` disarms it early.  Returns
        the hook.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        manager = cluster.view_manager
        if manager is None:
            raise ValueError("cluster has no view manager; create a view "
                             "before arming propagation losses")
        remaining = [count]

        def hook(coordinator, view, key, base_ts) -> bool:
            if view_name is not None and view.name != view_name:
                return False
            if base_key is not None and key != base_key:
                return False
            if match is not None and not match(view, key, base_ts):
                return False
            remaining[0] -= 1
            if remaining[0] <= 0:
                manager.remove_crash_hook(hook)
                self._hooks.remove((manager, hook))
            self.crash(cluster, coordinator.node.node_id, downtime)
            return True

        manager.add_crash_hook(hook)
        self._hooks.append((manager, hook))
        return hook


def lose_propagations(cluster, count: int, downtime: float,
                      **filters) -> Adversary:
    """Arm :meth:`Adversary.lose` on a bare cluster.

    For experiments and tests that run no scenario: returns the
    adversary holding the loss, whose ``stop()`` disarms the hook and
    recovers any coordinator still down.
    """
    adversary = Adversary()
    adversary.lose(cluster, count, downtime, **filters)
    return adversary


class PartitionStorm(Adversary):
    """Transient random network cuts between node pairs.

    Every ``pause`` (a latency model sample) the storm picks a random
    node pair, cuts it for a ``duration`` sample, then heals it.  At
    most ``max_cuts`` of this storm's cuts are active at once; on a
    4-node, RF=3 cluster the default single cut leaves every quorum
    reachable through the remaining links, so operations must ride it
    out (with retries) rather than fail permanently.
    """

    name = "partition-storm"

    def __init__(self, pause: Optional[LatencyModel] = None,
                 duration: Optional[LatencyModel] = None,
                 max_cuts: int = 1):
        super().__init__()
        if max_cuts < 1:
            raise ValueError("max_cuts must be >= 1")
        self.pause = pause or Uniform(20.0, 60.0)
        self.duration = duration or Uniform(10.0, 40.0)
        self.max_cuts = max_cuts

    def _strike(self, scenario, rng):
        cluster = scenario.cluster
        nodes = cluster.config.nodes
        if self.holds("cut") >= self.max_cuts or nodes < 2:
            return None
        a, b = rng.sample(range(nodes), 2)
        pair = (min(a, b), max(a, b))
        if ("cut", pair) not in self._held:
            self.cut(cluster, *pair, self.duration.sample(rng))
        return None


class GrayFailure(Adversary):
    """Slow-node gray failures: inflated service and link latency.

    Periodically picks a node and multiplies its CPU service times by
    ``cpu_factor`` and its link delays by ``link_factor`` for a
    ``duration`` sample — the node stays up and answers, just late.
    This is the failure mode crash detectors miss: quorum operations
    slow down (the gray node drags its quorums) but must still finish.
    """

    name = "gray-failure"

    def __init__(self, pause: Optional[LatencyModel] = None,
                 duration: Optional[LatencyModel] = None,
                 cpu_factor: float = 8.0, link_factor: float = 8.0,
                 max_slow: int = 1):
        super().__init__()
        if cpu_factor < 1.0 or link_factor < 1.0:
            raise ValueError("slowdown factors must be >= 1")
        if max_slow < 1:
            raise ValueError("max_slow must be >= 1")
        self.pause = pause or Uniform(20.0, 60.0)
        self.duration = duration or Uniform(20.0, 80.0)
        self.cpu_factor = cpu_factor
        self.link_factor = link_factor
        self.max_slow = max_slow

    def _strike(self, scenario, rng):
        cluster = scenario.cluster
        if self.holds("slow") >= self.max_slow:
            return None
        candidates = [node.node_id for node in cluster.nodes
                      if ("slow", node.node_id) not in self._held]
        if candidates:
            self.slow(cluster, rng.choice(candidates), self.cpu_factor,
                      self.link_factor, self.duration.sample(rng))
        return None


class ClockSkew(Adversary):
    """Drifting client clocks: timestamp order diverges from issue order.

    Every ``pause`` sample, each client the workload has registered
    (``Scenario.client_ids``) gets a fresh uniform offset in
    ``[-max_skew_ms, +max_skew_ms]``.  Timestamp oracles consult the
    skewed clock live, so updates issued later can carry *older*
    timestamps — the adversarial regime for the paper's client-supplied
    LWW ordering, which the oracle agreement invariant must still
    predict exactly.
    """

    name = "clock-skew"

    def __init__(self, pause: Optional[LatencyModel] = None,
                 max_skew_ms: float = 500.0):
        super().__init__()
        if max_skew_ms < 0:
            raise ValueError("max_skew_ms must be non-negative")
        self.pause = pause or Uniform(30.0, 90.0)
        self.max_skew_ms = max_skew_ms

    def _strike(self, scenario, rng):
        for client_id in sorted(scenario.client_ids):
            self.skew(scenario.cluster, client_id,
                      rng.uniform(-self.max_skew_ms, self.max_skew_ms))
        return None


class CrashLoop(Adversary):
    """One node crash-loops: up briefly, down briefly, forever.

    The default victim is node 0 — the scrubber's default coordinator —
    so a scenario with a scrubber exercises mid-round coordinator
    re-election (``ScrubMetrics.coordinator_switches``) and repeated
    hint replay on every revival.  The pause is the victim's
    ``uptime``; the loop waits out each revival before the next one.
    The crash is skipped whenever the victim is the last node standing.
    """

    name = "crash-loop"

    def __init__(self, victim: int = 0,
                 uptime: Optional[LatencyModel] = None,
                 downtime: Optional[LatencyModel] = None):
        super().__init__()
        self.victim = victim
        self.pause = uptime or Uniform(30.0, 80.0)
        self.downtime = downtime or Uniform(10.0, 30.0)

    def start(self, scenario) -> None:
        scenario.cluster.node(self.victim)  # validates the id
        super().start(scenario)

    def _strike(self, scenario, rng):
        # A skipped crash draws no downtime.
        return self.crash(scenario.cluster, self.victim,
                          partial(self.downtime.sample, rng))


class CrashStorm(Adversary):
    """Random node crashes cluster-wide.

    Every ``pause`` sample, if fewer than ``max_down`` of this storm's
    crashes are down, a random alive node (only among ``targets`` when
    given — e.g. the coordinators a workload uses, to stress the
    propagation driver rather than replica availability) is crashed for
    a ``downtime`` sample.  With ``max_down=1`` on the paper's 4-node /
    N=3 topology a majority of every replica set stays reachable, so
    quorum operations and view maintenance must keep working throughout.
    """

    name = "crash-storm"

    def __init__(self, pause: Optional[LatencyModel] = None,
                 downtime: Optional[LatencyModel] = None,
                 max_down: int = 1,
                 targets: Optional[List[int]] = None):
        super().__init__()
        if max_down < 1:
            raise ValueError("max_down must be >= 1")
        if targets is not None and not targets:
            raise ValueError("targets must name at least one node")
        self.pause = pause or Uniform(20.0, 60.0)
        self.downtime = downtime or Uniform(10.0, 40.0)
        self.max_down = max_down
        self.targets = None if targets is None else sorted(set(targets))

    def start(self, scenario) -> None:
        cluster = scenario.cluster
        if self.max_down >= cluster.config.nodes:
            raise ValueError("max_down must leave at least one node up")
        for node_id in self.targets or ():
            cluster.node(node_id)  # validates the id
        super().start(scenario)

    def _strike(self, scenario, rng):
        cluster = scenario.cluster
        if self.holds("crash") >= self.max_down:
            return None
        alive = [node.node_id for node in cluster.nodes if not node.is_down]
        candidates = [node_id for node_id in alive
                      if self.targets is None or node_id in self.targets]
        if candidates and len(alive) > 1:
            # The downtime is drawn when the revival process starts,
            # after the loop's next pause: every recorded run depends
            # on that order of the stream.  The storm does not wait
            # the revival out.
            self.crash(cluster, rng.choice(candidates),
                       partial(self.downtime.sample, rng))
        return None


class BurstArrivals(Adversary):
    """Open-loop arrival bursts: periodically floor the workload gap.

    Multiplies ``Scenario.arrival_scale`` by ``factor`` for a
    ``duration`` sample every ``pause`` sample; cooperative workloads
    divide their inter-arrival gaps by the scale.  The loop waits out
    each burst before the next pause.  Bursts drive the propagation
    backlog toward ``max_pending_propagations``, so the bounded-queue-
    depth invariant is actually load-bearing.
    """

    name = "burst-arrivals"

    def __init__(self, pause: Optional[LatencyModel] = None,
                 duration: Optional[LatencyModel] = None,
                 factor: float = 20.0):
        super().__init__()
        if factor <= 1.0:
            raise ValueError("burst factor must be > 1")
        self.pause = pause or Uniform(40.0, 100.0)
        self.duration = duration or Uniform(20.0, 50.0)
        self.factor = factor

    def _strike(self, scenario, rng):
        return self.burst(scenario, self.factor, self.duration.sample(rng))
