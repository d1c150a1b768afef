"""Tier 2: CREATE VIEW under writes, seeds 0-7.

The setup of ``tests/views/test_backfill_edges.py`` (200 rows, eight
clients writing for 2 s, the view created and loaded 60 ms in), swept
over eight seeds.  Each run must end with no divergent row and no
abandoned propagation, with no scrubber running, and the clients must
keep their pace: at least 4,000 Puts acked from CREATE VIEW on (about
4,200 when no record folds; under 3,300 while every record of a
loading view re-drove its row).
"""

import pytest

from repro.repair import divergent_base_keys
from repro.views import check_view

from tests.views.test_backfill_edges import (WRITERS_VIEW,
                                             run_writers_over_a_load)

pytestmark = [pytest.mark.scenario, pytest.mark.slow]


def test_create_view_under_writes_over_eight_seeds():
    runs = []
    for seed in range(8):
        cluster, marks = run_writers_over_a_load(seed)
        runs.append((seed, len(divergent_base_keys(cluster, WRITERS_VIEW)),
                     len(check_view(cluster, WRITERS_VIEW)),
                     cluster.view_manager.abandoned_propagations,
                     marks["puts"] >= 4000))
    assert runs == [(seed, 0, 0, 0, True) for seed in range(8)]
