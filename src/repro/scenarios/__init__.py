"""Adversarial scenario harness for the materialized-view store.

Three layers, all deterministic under one seed:

- **Adversaries** (:mod:`repro.scenarios.adversaries`): the one fault
  injector — composable, stackable partition storms, slow-node gray
  failures, client clock skew, crash-loops, crash storms and arrival
  bursts, all dealing and healing faults through the books of the
  :class:`Adversary` base class, plus :func:`lose_propagations`, which
  arms the paper's lost propagation on a bare cluster.
- **Scenarios** (:mod:`repro.scenarios.runner`): a runner wiring a
  workload, an adversary stack, and a cluster config; after forcing
  quiescence it checks the standing invariant suite
  (:mod:`repro.scenarios.invariants`).
- **Fuzzer** (:mod:`repro.scenarios.fuzzer`): randomized op/fault
  schedules replayed deterministically from a seed, with ddmin
  shrinking of failing histories to minimal JSON reproducers.
"""

from repro.scenarios.adversaries import (
    Adversary,
    BurstArrivals,
    ClockSkew,
    CrashLoop,
    CrashStorm,
    GrayFailure,
    PartitionStorm,
    lose_propagations,
)
from repro.scenarios.fuzzer import (
    FuzzFailure,
    Schedule,
    ScheduledFaults,
    ScheduleWorkload,
    fuzz,
    generate_schedule,
    load_schedule,
    replay_schedule,
    save_reproducer,
    shrink_schedule,
)
from repro.scenarios.invariants import (
    STANDING_INVARIANTS,
    BoundedQueueDepth,
    ClusterHealed,
    Invariant,
    NoLeakedLocks,
    OutboxConservation,
    SessionReadYourWrites,
    ViewOracleAgreement,
)
from repro.scenarios.runner import (
    SCENARIO_TABLE,
    SCENARIO_VIEW,
    EventBudgetExceeded,
    Scenario,
    ScenarioResult,
    default_config,
)
from repro.scenarios.workload import (
    AmbiguousOp,
    BaseWorkload,
    ScenarioWorkload,
    SessionObservation,
)

__all__ = [
    "Adversary",
    "PartitionStorm",
    "GrayFailure",
    "ClockSkew",
    "CrashLoop",
    "CrashStorm",
    "BurstArrivals",
    "lose_propagations",
    "Invariant",
    "ViewOracleAgreement",
    "SessionReadYourWrites",
    "OutboxConservation",
    "BoundedQueueDepth",
    "NoLeakedLocks",
    "ClusterHealed",
    "STANDING_INVARIANTS",
    "Scenario",
    "ScenarioResult",
    "EventBudgetExceeded",
    "SCENARIO_TABLE",
    "SCENARIO_VIEW",
    "default_config",
    "BaseWorkload",
    "ScenarioWorkload",
    "AmbiguousOp",
    "SessionObservation",
    "Schedule",
    "ScheduleWorkload",
    "ScheduledFaults",
    "FuzzFailure",
    "generate_schedule",
    "replay_schedule",
    "shrink_schedule",
    "fuzz",
    "save_reproducer",
    "load_schedule",
]
