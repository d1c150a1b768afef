"""Figure 4: aggregate read throughput vs number of clients.

Paper result: BT and MV scale together (MV slightly lower, because view
reads must retrieve and filter stale rows); SI throughput is far lower —
every lookup occupies all servers.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster import UtilizationTracker
from repro.experiments.calibration import ExperimentParams, experiment_config
from repro.experiments.results import FigureResult
from repro.experiments.scenarios import (
    PAYLOAD_COLUMN,
    SEC_COLUMN,
    TABLE,
    VIEW_NAME,
    build_scenario,
    sec_value,
)
from repro.workloads import (
    UniformKeys,
    index_read_op,
    read_op,
    run_closed_loop,
    view_read_op,
)

__all__ = ["run"]


def run(params: Optional[ExperimentParams] = None) -> FigureResult:
    """Run the Figure 4 experiment and return its table."""
    params = params or ExperimentParams()
    keys = UniformKeys(params.rows)
    result = FigureResult(
        figure="Figure 4",
        title="Read throughput (req/s) vs concurrent clients",
        columns=("scenario", "clients", "throughput", "cpu_util"),
        notes="paper: BT > MV >> SI; BT/MV flatten at cluster capacity "
              "(cpu_util shows the saturation)",
    )
    ops = {
        "BT": lambda: read_op(TABLE, keys, [PAYLOAD_COLUMN],
                              r=params.read_quorum),
        "SI": lambda: index_read_op(TABLE, SEC_COLUMN, keys, sec_value,
                                    [PAYLOAD_COLUMN]),
        "MV": lambda: view_read_op(VIEW_NAME, keys, sec_value,
                                   [PAYLOAD_COLUMN], r=params.read_quorum),
    }
    for label, make_op in ops.items():
        # One populated cluster per scenario, reused across client counts
        # (reads do not mutate state).
        cluster = build_scenario(label.lower(), experiment_config(params.seed),
                                 params.rows, params.payload_length)
        for clients in params.client_counts:
            tracker = UtilizationTracker(cluster)
            tracker.start()
            summary = run_closed_loop(cluster, make_op(), clients,
                                      params.throughput_duration,
                                      params.warmup)
            utilization = tracker.stop().mean_utilization()
            result.add_row(label, clients, summary.throughput, utilization)
        cluster.close()
    return result
