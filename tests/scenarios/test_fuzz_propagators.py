"""Fuzzed histories under dedicated propagators (paper Section IV-F).

The fuzzer proper runs ``propagation_concurrency="locks"``, so without
this sweep no fault schedule drives the propagators' serialization:
their job hand-off across crashes, partitions and slow nodes.  Tier 2
(the CI ``scenarios`` job): 400 seeds, with the scrubber, every one of
which must come out with every invariant holding.
"""

import pytest

from repro.scenarios import generate_schedule, replay_schedule

pytestmark = [pytest.mark.scenario, pytest.mark.slow]

SEEDS = range(400)


def test_fuzzed_histories_hold_every_invariant_under_propagators():
    failing = {}
    for seed in SEEDS:
        result = replay_schedule(
            generate_schedule(seed), scrub=True,
            config_overrides={"propagation_concurrency": "propagators"})
        if not result.ok:
            failing[seed] = result.violations[:2]
    assert failing == {}
