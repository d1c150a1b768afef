"""The scenario matrix: every adversary × eager/adaptive maintenance.

Tier 1 runs one representative stacked scenario per maintenance mode;
the full matrix (each adversary alone plus a stacked combination, eager
and adaptive) is tier 2 (``-m slow``) and is what the CI ``scenarios``
job executes.  Every cell must pass the standing invariant suite.
"""

import pytest

from repro.scenarios import (
    BurstArrivals,
    ClockSkew,
    CrashLoop,
    CrashStorm,
    GrayFailure,
    PartitionStorm,
    Scenario,
    ScenarioWorkload,
    ScheduleWorkload,
    default_config,
    generate_schedule,
)
from repro.views import skew

pytestmark = pytest.mark.scenario


@pytest.fixture(autouse=True)
def faster_tick(monkeypatch):
    monkeypatch.setattr(skew, "FOLD_INTERVAL", 10.0)

# The matrix rows: name -> factory for a fresh adversary stack.
ADVERSARY_STACKS = {
    "partition-storm": lambda: [PartitionStorm()],
    "gray-failure": lambda: [GrayFailure()],
    "clock-skew": lambda: [ClockSkew(max_skew_ms=1500.0)],
    "crash-loop": lambda: [CrashLoop(victim=0)],
    "crash-storm": lambda: [CrashStorm()],
    "burst-arrivals": lambda: [BurstArrivals()],
    "stacked": lambda: [CrashStorm(), PartitionStorm(),
                        ClockSkew(max_skew_ms=1000.0), BurstArrivals()],
}


# The adaptive heavy/light maintenance knobs (repro.views.skew): the
# second matrix dimension.
ADAPTIVE_OVERRIDES = dict(skew_adaptive=True)


def run_cell(stack_name: str, *, seed: int = 17, ops: int = 120,
             adaptive: bool = False):
    overrides = ADAPTIVE_OVERRIDES if adaptive else {}
    name = stack_name + ("/adaptive" if adaptive else "")
    scenario = Scenario(
        name,
        config=default_config(seed=seed, **overrides),
        workload=ScenarioWorkload(ops=ops),
        adversaries=ADVERSARY_STACKS[stack_name](),
    )
    result = scenario.run()
    assert result.ok, (result.name, result.violations[:5], result.stats)
    return result


def test_stacked_scenario_quick():
    """Tier-1 representative: the stacked storm."""
    result = run_cell("stacked", ops=60)
    assert result.stats["acked_ops"] > 0


def test_stacked_scenario_quick_adaptive():
    """Tier-1 representative: the stacked storm, adaptive maintenance."""
    result = run_cell("stacked", ops=60, adaptive=True)
    assert result.stats["acked_ops"] > 0


@pytest.mark.slow
@pytest.mark.parametrize("stack_name", sorted(ADVERSARY_STACKS))
def test_scenario_matrix(stack_name):
    """Tier 2: every adversary stack, bigger workloads."""
    result = run_cell(stack_name, ops=200)
    # The harness is not vacuous: work happened and was accounted for.
    assert result.stats["applied_updates"] > 0
    assert result.stats["completed_propagations"] > 0


@pytest.mark.slow
@pytest.mark.parametrize("stack_name", sorted(ADVERSARY_STACKS))
def test_scenario_matrix_adaptive(stack_name):
    """Tier 2: every adversary against adaptive heavy/light maintenance."""
    result = run_cell(stack_name, ops=200, adaptive=True)
    assert result.stats["applied_updates"] > 0
    assert result.stats["completed_propagations"] > 0


@pytest.mark.slow
def test_matrix_seeds_sweep():
    """Tier 2: the stacked storm across several seeds."""
    for seed in (1, 2, 3):
        run_cell("stacked", seed=seed, ops=150)


@pytest.mark.slow
def test_create_view_mid_history_under_partition_and_crash_loop():
    """Tier 2: 200 scheduled ops over 8 rows, with the view created and
    its load started at 150 ms, under a partition storm stacked on a
    crash loop of node 0 (the load's first coordinator).  No scrubber
    runs, so the load, the chain rule and the records' own propagations
    alone must leave every invariant holding, and no propagation may be
    abandoned: a record replaying its update against a chain the load
    had not reached would retry until it was."""
    schedule = generate_schedule(17, ops=200, faults=0, base_keys=8)
    ops = [op for op in schedule.ops if op["kind"] != "create_view"]
    assert sum(op["kind"] == "put" and op["t"] < 150.0 for op in ops) > 20
    ops.append({"t": 150.0, "kind": "create_view"})
    adversaries = [PartitionStorm(), CrashLoop(victim=0)]
    scenario = Scenario(
        "create-view-mid-history",
        config=default_config(seed=17),
        workload=ScheduleWorkload(ops),
        adversaries=adversaries,
        scrub=False,
    )
    result = scenario.run()
    assert result.ok, (result.violations[:5], result.stats)
    assert result.stats["abandoned_propagations"] == 0
    assert all(adversary.injections > 0 for adversary in adversaries)
