"""Tier 2: the scrubber repairs nothing that was not lost.

E4's gray-failure, clock-skew and burst-arrivals stacks slow nodes,
skew client clocks and bunch arrivals, but crash nothing, so no
propagation is lost and every repair the scrubber made in them would be
a false one: a row judged while work on its chain was still in flight.
Over seeds 0-19 of each stack (E4's cell at ``ExperimentParams(seed)``)
there must be none, and no invariant violation.
"""

import pytest

from repro.experiments import ext_adversary
from repro.experiments.calibration import ExperimentParams
from repro.scenarios import Scenario, ScenarioWorkload, default_config

pytestmark = [pytest.mark.scenario, pytest.mark.slow]

NO_LOSS_STACKS = ("gray-failure", "clock-skew", "burst-arrivals")


def test_no_loss_runs_make_no_repairs():
    runs = []
    for stack_name in NO_LOSS_STACKS:
        for seed in range(20):
            params = ExperimentParams(seed=seed)
            scenario = Scenario(
                stack_name,
                config=default_config(seed=params.seed + 17),
                workload=ScenarioWorkload(ops=params.adversary_ops),
                adversaries=ext_adversary.ADVERSARY_STACKS[stack_name](),
            )
            result = scenario.run()
            stats = result.stats
            runs.append((stack_name, seed, stats["lost_propagations"],
                         stats["scrub"]["repairs_applied"],
                         result.violations[:3]))
    assert len(runs) == 60
    assert [run for run in runs if run[2:] != (0, 0, [])] == []
