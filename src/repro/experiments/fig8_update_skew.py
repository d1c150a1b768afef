"""Figure 8: effect of update skew on write throughput (MV maintenance).

10 clients update the view-key column of base rows drawn from a shared
key range; the range width shrinks from 100,000 keys down to a single
key.  Narrow ranges concentrate updates on few rows: exclusive-lock
serialization of view-key propagation, growing stale-row chains, and
maintenance back-pressure collapse throughput.

Paper result: throughput decreases significantly as the range narrows.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.calibration import ExperimentParams, experiment_config
from repro.experiments.results import FigureResult
from repro.experiments.scenarios import SEC_COLUMN, TABLE, build_scenario
from repro.workloads import RangeKeys, run_closed_loop, write_op

__all__ = ["run"]


def run(params: Optional[ExperimentParams] = None,
        concurrency: str = "locks") -> FigureResult:
    """Run the Figure 8 experiment and return its table.

    ``concurrency`` selects the Section IV-F mechanism under test
    (``"locks"`` or ``"propagators"``); the ablation bench compares them.
    """
    params = params or ExperimentParams()
    result = FigureResult(
        figure="Figure 8",
        title=f"Write throughput (req/s) vs update key-range width "
              f"({params.skew_clients} clients updating the view key; "
              f"concurrency={concurrency})",
        columns=("range_width", "throughput", "avg_chain_hops"),
        notes="paper: throughput collapses as the range narrows",
    )
    for width in params.skew_ranges:
        config = experiment_config(params.seed,
                                   propagation_concurrency=concurrency)
        # Rows are created by the workload itself (every update is a
        # view-key write); no pre-population is needed because all range
        # widths start from the same empty state.
        cluster = build_scenario("mv", config, rows=0, populate=False,
                                 materialize_payload=False)
        op = write_op(TABLE, RangeKeys(width), SEC_COLUMN,
                      w=params.write_quorum)
        summary = run_closed_loop(cluster, op, params.skew_clients,
                                  params.skew_duration, params.warmup)
        metrics = cluster.view_manager.maintainer.metrics
        result.add_row(width, summary.throughput,
                       metrics.hops_per_propagation())
        cluster.close()
    return result
