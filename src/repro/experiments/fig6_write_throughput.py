"""Figure 6: aggregate write throughput vs number of clients.

Paper result: BT highest; SI modestly below (synchronous local index
maintenance); MV clearly below both — asynchronous view maintenance
consumes cluster resources for every update, even though clients do not
wait for it.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster import UtilizationTracker
from repro.experiments.calibration import ExperimentParams, experiment_config
from repro.experiments.results import FigureResult
from repro.experiments.scenarios import SEC_COLUMN, TABLE, build_scenario
from repro.workloads import UniformKeys, run_closed_loop, write_op

__all__ = ["run"]


def run(params: Optional[ExperimentParams] = None) -> FigureResult:
    """Run the Figure 6 experiment and return its table."""
    params = params or ExperimentParams()
    keys = UniformKeys(params.rows)
    result = FigureResult(
        figure="Figure 6",
        title="Write throughput (req/s) vs concurrent clients, updating "
              "the secondary key column",
        columns=("scenario", "clients", "throughput", "cpu_util"),
        notes="paper: BT > SI > MV (uniform updates are MV's best case); "
              "MV saturates its cpu on maintenance work",
    )
    for label in ("BT", "SI", "MV"):
        for clients in params.client_counts:
            # Fresh cluster per point: writes mutate state (stale rows
            # accumulate in the MV scenario), so sharing one cluster
            # across client counts would bias later points.
            cluster = build_scenario(label.lower(),
                                     experiment_config(params.seed),
                                     params.rows, params.payload_length,
                                     materialize_payload=False)
            op = write_op(TABLE, keys, SEC_COLUMN, w=params.write_quorum)
            tracker = UtilizationTracker(cluster)
            tracker.start()
            summary = run_closed_loop(cluster, op, clients,
                                      params.throughput_duration,
                                      params.warmup)
            utilization = tracker.stop().mean_utilization()
            result.add_row(label, clients, summary.throughput, utilization)
            cluster.close()
    return result
