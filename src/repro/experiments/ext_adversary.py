"""Extension E4: the adversarial scenario matrix as an experiment.

Runs every named adversary stack from :mod:`repro.scenarios` — partition
storms, gray failures, client clock skew, crash-looping the scrub
coordinator, random crash storms, burst arrivals, and a stacked
combination — and reports one row per stack: how much damage the
adversary injected, how much work still completed, what the scrubber
had to repair, and whether the standing invariant suite held after
quiescence.

This is the paper's Section VIII robustness story made quantitative:
the protocol plus the repair subsystem keep the view convergent under
every fault class the simulator can express, not just the coordinator
crash the authors single out.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.experiments.calibration import ExperimentParams
from repro.experiments.results import FigureResult
from repro.scenarios import (
    Adversary,
    BurstArrivals,
    ClockSkew,
    CrashLoop,
    CrashStorm,
    GrayFailure,
    PartitionStorm,
    Scenario,
    ScenarioWorkload,
    default_config,
)

__all__ = ["run", "ADVERSARY_STACKS"]

# One factory per matrix row; each call builds a fresh stack.
ADVERSARY_STACKS: Dict[str, Callable[[], List[Adversary]]] = {
    "partition-storm": lambda: [PartitionStorm()],
    "gray-failure": lambda: [GrayFailure()],
    "clock-skew": lambda: [ClockSkew(max_skew_ms=1500.0)],
    "crash-loop": lambda: [CrashLoop(victim=0)],
    "crash-storm": lambda: [CrashStorm()],
    "burst-arrivals": lambda: [BurstArrivals()],
    "stacked": lambda: [CrashStorm(), PartitionStorm(),
                        ClockSkew(max_skew_ms=1000.0), BurstArrivals()],
}


def run(params: Optional[ExperimentParams] = None) -> FigureResult:
    """One row per adversary stack."""
    params = params or ExperimentParams()
    result = FigureResult(
        figure="Extension E4",
        title="Standing invariants under adversarial schedules",
        columns=("adversary", "injections", "acked_ops",
                 "propagations", "repairs", "violations"),
    )
    failures = 0
    for stack_name, build_stack in ADVERSARY_STACKS.items():
        scenario = Scenario(
            stack_name,
            config=default_config(seed=params.seed + 17),
            workload=ScenarioWorkload(ops=params.adversary_ops),
            adversaries=build_stack(),
        )
        cell = scenario.run()
        stats = cell.stats
        result.add_row(
            stack_name,
            sum(adversary.injections for adversary in scenario.adversaries),
            stats["acked_ops"], stats["completed_propagations"],
            stats.get("scrub", {}).get("repairs_applied", 0),
            len(cell.violations))
        failures += 0 if cell.ok else 1
    result.notes = (
        f"{len(ADVERSARY_STACKS)} stacks, {failures} with invariant "
        "violations; every run "
        "quiesces via heal + anti-entropy + scrub-until-clean before the "
        "invariant suite (view-oracle agreement, session guarantees, "
        "outbox conservation, bounded queues, no leaked locks) is judged.")
    return result
