"""Liveness on a hot key range (Algorithm 1 lines 5-7, Figure 8).

Ten closed-loop clients move the view key of ten base rows.  Every
propagation but the first on a chain has to wait for its predecessor's
row to appear, and the predecessor is usually another coordinator's
record: a propagation that is *waiting* must never stop the one it is
waiting for from running.  No scrubber runs here — the eager path alone
has to keep clients moving and leave the view exact.
"""

import pytest

from repro.experiments.calibration import experiment_config
from repro.experiments.scenarios import (
    SEC_COLUMN,
    TABLE,
    VIEW_NAME,
    build_scenario,
)
from repro.repair import divergent_base_keys
from repro.workloads import RangeKeys, run_closed_loop, write_op


@pytest.mark.parametrize("concurrency", ["locks", "propagators"])
def test_hot_range_writes_stay_live_and_converge(concurrency):
    config = experiment_config(0, propagation_concurrency=concurrency)
    cluster = build_scenario("mv", config, rows=0, populate=False,
                             materialize_payload=False)
    summary = run_closed_loop(
        cluster, write_op(TABLE, RangeKeys(10), SEC_COLUMN, w=1),
        10, 400.0, 100.0)
    assert summary.operations > 0

    cluster.run_until_idle()
    for table in (TABLE, VIEW_NAME):
        cluster.env.run(until=cluster.repair_table(table))
    manager = cluster.view_manager
    assert manager.abandoned_propagations == 0
    assert divergent_base_keys(cluster, manager.view(VIEW_NAME)) == []
