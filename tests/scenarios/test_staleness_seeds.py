"""Tier 2: bounded reads stay sound under crash-lost propagation.

E6 (``repro.experiments.ext_staleness``) at seeds 0-9, full size.  In
every cell every bounded read honors its bound against the
acknowledged-update oracle, no more wounds heal than opened, and the
unbounded cell never escalates.  Escalation rates are not asserted to
rise monotonically as the bound tightens: across seeds they need not
(seeds 1 and 2 do not), which ``benchmarks/test_ext_staleness.py``
checks at seed 0 only.
"""

import pytest

from repro.experiments import ext_staleness
from repro.experiments.calibration import ExperimentParams

pytestmark = [pytest.mark.scenario, pytest.mark.slow]


def test_bounded_reads_are_sound_at_every_seed():
    failures = []
    for seed in range(10):
        params = ExperimentParams(seed=seed)
        for bound in params.staleness_bounds:
            cell = ext_staleness.run_staleness_point(params, bound)
            if (cell["audit_violations"]
                    or cell["wounds_healed"] > cell["wounds_opened"]
                    or (bound is None and cell["escalations"])):
                failures.append((seed, bound, cell["audit_violations"],
                                 cell["wounds_opened"], cell["wounds_healed"],
                                 cell["escalations"],
                                 cell["audit_failures"][:1]))
    assert failures == []
