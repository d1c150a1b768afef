"""The scenario runner: workload + adversary stack + invariant suite.

A :class:`Scenario` wires one cluster, one workload, and any stack of
:class:`~repro.scenarios.adversaries.Adversary` objects, runs them to
completion, forces quiescence, and then checks the standing invariant
suite (:mod:`repro.scenarios.invariants`).  The phases of ``run()``:

1. **Build** — cluster from a deterministic config (one seed fixes the
   workload, every adversary, and the network), schema ``T`` with view
   ``V`` keyed on ``vk`` materializing ``m`` (or, for a workload that
   creates ``V`` mid-history, no view yet), and the background
   scrubber.
2. **Storm** — adversaries start, the workload runs to completion
   under fire, adversaries stop (healing their own damage).
3. **Quiesce** — anything an adversary failed to heal is recorded
   (the ``ClusterHealed`` invariant reports it) and healed; the
   propagation backlog drains in bounded windows; replicas converge
   via anti-entropy; the scrubber runs until base and view agree (or
   a round cap trips); ambiguous Puts are resolved against converged
   state.
4. **Judge** — every invariant runs; the result carries violations,
   counters, and a canonical state digest
   (:func:`~repro.views.invariants.state_digest`) for differential
   and determinism checks.

A runaway history (livelock, unbounded retry storm) is cut off by an
optional kernel event budget — the fuzzer relies on this to bound
arbitrary generated schedules.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence

from repro.cluster import Cluster, ClusterConfig
from repro.common.records import Cell, ColumnName
from repro.repair import divergent_base_keys
from repro.scenarios.invariants import STANDING_INVARIANTS, Invariant
from repro.scenarios.workload import BaseWorkload, ScenarioWorkload
from repro.sim.latency import Fixed
from repro.views import ReferenceViewModel, ViewDefinition, state_digest
from repro.views.model import LogicalBaseTable

__all__ = [
    "SCENARIO_TABLE",
    "SCENARIO_VIEW",
    "EventBudgetExceeded",
    "ScenarioResult",
    "Scenario",
    "default_config",
]

SCENARIO_TABLE = "T"
SCENARIO_VIEW = ViewDefinition("V", SCENARIO_TABLE, "vk", ("m",))

# Quiescence runs the cluster in windows of SETTLE_WINDOW sim-ms, at
# most MAX_SETTLE_ROUNDS of them per phase (propagation drain, scrub).
SETTLE_WINDOW = 50.0
MAX_SETTLE_ROUNDS = 60


class EventBudgetExceeded(RuntimeError):
    """The kernel processed more events than the scenario allows."""


def default_config(*, seed: int = 0, **overrides) -> ClusterConfig:
    """The scenario harness's deterministic 4-node config.

    Fixed link latencies keep runs fast and make every source of
    nondeterminism an explicit RNG stream.
    """
    defaults: Dict[str, Any] = dict(
        nodes=4,
        replication_factor=3,
        client_link=Fixed(0.1),
        replica_link=Fixed(0.1),
        propagation_delay=Fixed(0.05),
        seed=seed,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


@dataclass
class ScenarioResult:
    """Outcome of one scenario run."""

    name: str
    violations: List[str] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)
    base_digest: str = ""
    view_digest: str = ""
    digest: str = ""

    @property
    def ok(self) -> bool:
        """True when every invariant held."""
        return not self.violations

    def summary(self) -> str:
        """One line for matrix reports."""
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        return f"{self.name}: {status}"


class Scenario:
    """One reproducible adversarial run with post-quiescence checking."""

    def __init__(self, name: str = "scenario", *,
                 config: Optional[ClusterConfig] = None,
                 workload: Optional[BaseWorkload] = None,
                 adversaries: Sequence = (),
                 invariants: Optional[Sequence[Invariant]] = None,
                 scrub: bool = True,
                 event_budget: Optional[int] = None):
        self.name = name
        self.config = config or default_config()
        self.workload = workload or ScenarioWorkload()
        self.adversaries = list(adversaries)
        self.invariants = (list(invariants) if invariants is not None
                           else list(STANDING_INVARIANTS))
        self.scrub = scrub
        self.event_budget = event_budget
        self.view = SCENARIO_VIEW
        self.cluster: Optional[Cluster] = None
        # Live workload <-> adversary coupling points.
        self.client_ids: set = set()
        self.arrival_scale = 1.0
        # Damage the runner (not its adversary) had to heal at
        # quiescence; the ClusterHealed invariant reports these.
        self.unhealed: List[str] = []
        self._events_seen = 0
        self._oracle: Optional[ReferenceViewModel] = None

    # -- construction --------------------------------------------------------

    def build(self) -> Cluster:
        """Create (once) the cluster, schema, and view."""
        if self.cluster is None:
            self.cluster = Cluster(self.config)
            self.cluster.create_table(SCENARIO_TABLE)
            if self.workload.creates_view:
                # The view comes mid-history, its manager from the start.
                self.cluster.views()
            else:
                self.cluster.create_view(self.view)
        return self.cluster

    # -- the run -------------------------------------------------------------

    def run(self) -> ScenarioResult:
        """Execute the scenario end to end and judge the invariants."""
        cluster = self.build()
        env = cluster.env
        if self.event_budget is not None:
            env.set_event_watcher(self._count_event)
        scrubber = cluster.start_scrubber() if self.scrub else None

        for index, adversary in enumerate(self.adversaries):
            adversary.label = f"{adversary.name}#{index}"
        try:
            for adversary in self.adversaries:
                adversary.start(self)
            workload_process = env.process(self.workload.run(self),
                                           name="scenario-workload")
            env.run(until=workload_process)
            for adversary in reversed(self.adversaries):
                adversary.stop(self)
            self._quiesce(scrubber)
        except EventBudgetExceeded as exc:
            result = ScenarioResult(
                name=self.name,
                violations=[f"event-budget: {exc}"],
                stats=self._stats(scrubber),
            )
        else:
            result = self._judge(scrubber)
        # Judged: end what a cut-off run left in flight, so the cluster
        # is freed once the scenario is dropped (Cluster.close).
        cluster.close()
        return result

    def _count_event(self, _event) -> None:
        self._events_seen += 1
        if self._events_seen > self.event_budget:
            raise EventBudgetExceeded(
                f"scenario {self.name!r} exceeded its event budget of "
                f"{self.event_budget} (livelock or retry storm?)")

    # -- quiescence ----------------------------------------------------------

    def _quiesce(self, scrubber) -> None:
        """Heal, drain, repair, scrub until base and view agree."""
        cluster = self.cluster
        manager = cluster.view_manager
        self._record_unhealed()
        self._heal_everything()

        # Drain the propagation backlog in bounded windows (the
        # scrubber is still looping, so run_until_idle would not
        # terminate yet).
        for _round in range(MAX_SETTLE_ROUNDS):
            if manager.pending_propagations == 0:
                break
            self._run_window()

        # Converge replicas so scrub quorum reads see settled rows.
        cluster.env.run(until=cluster.repair_table(SCENARIO_TABLE))
        cluster.env.run(until=cluster.repair_table(self.view.name))

        if scrubber is not None:
            for _round in range(MAX_SETTLE_ROUNDS):
                if (manager.pending_propagations == 0
                        and not divergent_base_keys(cluster, self.view)):
                    break
                self._run_window()
            scrubber.stop()
        cluster.run_until_idle()

        # Scrub repairs and hint replay wrote at quorum; spread them to
        # every replica so converged-state checks see one state.
        cluster.env.run(until=cluster.repair_table(SCENARIO_TABLE))
        cluster.env.run(until=cluster.repair_table(self.view.name))
        cluster.run_until_idle()
        self.workload.resolve_ambiguous(cluster)

    def _record_unhealed(self) -> None:
        """Note any damage the stopped adversaries left behind."""
        cluster = self.cluster
        for node in cluster.nodes:
            if node.is_down:
                self.unhealed.append(f"node {node.node_id} still down")
            if node.cpu_slowdown != 1.0:
                self.unhealed.append(
                    f"node {node.node_id} cpu slowdown "
                    f"{node.cpu_slowdown} not restored")
        for a, b in cluster.network.active_partitions():
            self.unhealed.append(f"partition {a}<->{b} not healed")
        for node in cluster.nodes:
            factor = cluster.network.slowdown_of(node.node_id)
            if factor != 1.0:
                self.unhealed.append(
                    f"node {node.node_id} link slowdown {factor} "
                    "not restored")
        for client_id in sorted(self.client_ids):
            skew = cluster.clock_skew_of(client_id)
            if skew:
                self.unhealed.append(
                    f"client {client_id} clock skew {skew:+.1f}ms "
                    "not cleared")
        if self.arrival_scale != 1.0:
            self.unhealed.append(
                f"arrival scale {self.arrival_scale} not restored")

    def _heal_everything(self) -> None:
        """Belt and braces: force the cluster back to nominal."""
        cluster = self.cluster
        for node in cluster.nodes:
            if node.is_down:
                cluster.recover_node(node.node_id)
            cluster.restore_node_speed(node.node_id)
        cluster.network.heal_all()
        cluster.network.clear_all_slowdowns()
        cluster.clear_clock_skews()
        self.arrival_scale = 1.0

    def _run_window(self) -> None:
        env = self.cluster.env
        self.cluster.run(until=env.now + SETTLE_WINDOW)

    # -- judging -------------------------------------------------------------

    def oracle(self) -> ReferenceViewModel:
        """The Definition 2/3 reference oracle fed with applied updates.

        LWW folding is order-insensitive for the final state, so the
        updates are fed in a canonical (timestamp, key, column) order
        regardless of real interleaving.
        """
        if self._oracle is None:
            self._oracle = ReferenceViewModel(self.view)
            for update in sorted(self.workload.applied,
                                 key=lambda u: (u.timestamp, repr(u.key),
                                                repr(u.column))):
                self._oracle.propagate(update)
        return self._oracle

    def logical_base(self) -> Dict[Hashable, Dict[ColumnName, Cell]]:
        """LWW fold of every applied update (the base-table oracle)."""
        table = LogicalBaseTable()
        columns: Dict[Hashable, set] = {}
        for update in self.workload.applied:
            table.apply(update)
            columns.setdefault(update.key, set()).add(update.column)
        return {key: {column: table.cell(key, column) for column in cols}
                for key, cols in columns.items()}

    def _judge(self, scrubber) -> ScenarioResult:
        violations: List[str] = []
        for invariant in self.invariants:
            violations.extend(f"{invariant.name}: {violation}"
                              for violation in invariant.check(self))
        base_digest = state_digest(self.cluster, SCENARIO_TABLE)
        view_digest = state_digest(self.cluster, self.view.name)
        manager = self.cluster.view_manager
        outcome = hashlib.sha256(
            f"{base_digest}|{view_digest}|{manager.completed_propagations}"
            f"|{manager.lost_propagations}|{manager.abandoned_propagations}"
            f"|{len(self.workload.applied)}".encode("utf-8")).hexdigest()
        return ScenarioResult(
            name=self.name,
            violations=violations,
            stats=self._stats(scrubber),
            base_digest=base_digest,
            view_digest=view_digest,
            digest=outcome,
        )

    def _stats(self, scrubber) -> Dict[str, Any]:
        manager = self.cluster.view_manager
        stats: Dict[str, Any] = {
            "now": self.cluster.env.now,
            "acked_ops": self.workload.acked_ops,
            "unacked_ops": self.workload.unacked_ops,
            "applied_updates": len(self.workload.applied),
            "ambiguous_applied": self.workload.ambiguous_applied,
            "ambiguous_dropped": self.workload.ambiguous_dropped,
            "session_reads": self.workload.reads_done,
            "session_reads_failed": self.workload.reads_failed,
            "bounded_reads": self.workload.bounded_reads_done,
            "bounded_reads_failed": self.workload.bounded_reads_failed,
            "completed_propagations": manager.completed_propagations,
            "lost_propagations": manager.lost_propagations,
            "abandoned_propagations": manager.abandoned_propagations,
            "adversaries": {adversary.label: adversary.describe()
                            for adversary in self.adversaries},
        }
        outbox = manager.outbox_stats()
        stats["outbox"] = {key: outbox[key]
                           for key in ("appended", "coalesced", "depth",
                                       "max_depth", "lag", "folded")}
        if manager.skew.enabled:
            stats["skew"] = manager.skew_stats()
        stats["freshness"] = manager.freshness_stats()
        stats["locks"] = manager.locks.stats()
        if scrubber is not None:
            stats["scrub"] = {
                "rounds": scrubber.metrics.rounds,
                "divergences_found": scrubber.metrics.divergences_found,
                "repairs_applied": scrubber.metrics.repairs_applied,
                "coordinator_switches":
                    scrubber.metrics.coordinator_switches,
            }
        return stats
