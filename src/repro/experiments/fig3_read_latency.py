"""Figure 3: read latency by access path (BT vs SI vs MV).

Paper result: BT and MV latencies are similar; SI is ~3.5x slower
because the lookup is broadcast to every server and waits for all of
their index-fragment scans.
"""

from __future__ import annotations

from typing import Optional

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
    measure_latency,
    read_op,
    view_read_op,
)

__all__ = ["run"]


def run(params: Optional[ExperimentParams] = None) -> FigureResult:
    """Run the Figure 3 experiment and return its table."""
    params = params or ExperimentParams()
    keys = UniformKeys(params.rows)
    result = FigureResult(
        figure="Figure 3",
        title="Read latency (ms), single client, by access path",
        columns=("scenario", "mean_ms", "p99_ms"),
        notes="paper: BT ~= MV, SI ~3.5x slower",
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
        cluster = build_scenario(label.lower(), experiment_config(params.seed),
                                 params.rows, params.payload_length)
        summary = measure_latency(cluster, make_op(),
                                  params.latency_requests)
        result.add_row(label, summary.mean_latency,
                       summary.latency.percentile(99))
        cluster.close()
    return result
