"""Figure 5: write latency by maintenance burden (BT vs SI vs MV).

Paper result: BT ~= SI (native indexes update synchronously but locally,
partitioned by primary key), MV ~2.5x slower — the coordinator must read
the old view key before the base Put (Algorithm 1), and the prototype
did not combine the Get and Put into one round trip.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.calibration import ExperimentParams, experiment_config
from repro.experiments.results import FigureResult
from repro.experiments.scenarios import SEC_COLUMN, TABLE, build_scenario
from repro.workloads import UniformKeys, measure_latency, write_op

__all__ = ["run"]


def run(params: Optional[ExperimentParams] = None) -> FigureResult:
    """Run the Figure 5 experiment and return its table."""
    params = params or ExperimentParams()
    keys = UniformKeys(params.rows)
    result = FigureResult(
        figure="Figure 5",
        title="Write latency (ms), single client, updating the secondary "
              "key column",
        columns=("scenario", "mean_ms", "p99_ms"),
        notes="paper: BT ~= SI, MV ~2.5x (read-before-write of the view key)",
    )
    for label in ("BT", "SI", "MV"):
        cluster = build_scenario(label.lower(), experiment_config(params.seed),
                                 params.rows, params.payload_length,
                                 materialize_payload=False)
        op = write_op(TABLE, keys, SEC_COLUMN, w=params.write_quorum)
        summary = measure_latency(cluster, op, params.latency_requests)
        result.add_row(label, summary.mean_latency,
                       summary.latency.percentile(99))
        cluster.close()
    return result
