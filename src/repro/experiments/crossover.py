"""Crossover analysis: SI vs MV across read/write mixes (extension).

The paper's conclusion: materialized views give much faster
secondary-key *reads* than native secondary indexes, but cost more per
*write*, so "our technique is probably best-suited to views for which
the underlying base data (especially the view keys) are updated
infrequently."  This experiment quantifies that claim: a closed-loop
workload where each operation is a secondary-key read with probability
``1 - f`` or a view-key-column update with probability ``f``, swept over
``f``, comparing aggregate throughput of the SI and MV configurations.

Expected shape: MV wins decisively at read-heavy mixes (its reads cost
~1/3.5 of SI's); SI overtakes somewhere in the write-heavy regime (its
maintenance is synchronous-but-local, MV's costs several internal
operations per update).  The reported crossover point makes the paper's
"updated infrequently" advice concrete.
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
    mixed_op,
    run_closed_loop,
    view_read_op,
    write_op,
)

__all__ = ["run", "DEFAULT_WRITE_FRACTIONS"]

DEFAULT_WRITE_FRACTIONS = (0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)


def run(params: Optional[ExperimentParams] = None,
        write_fractions=DEFAULT_WRITE_FRACTIONS,
        clients: int = 8) -> FigureResult:
    """Sweep the write fraction; returns throughput per scenario.

    Note the caveat baked into the comparison (as in the paper): the MV
    read may be stale, the SI read is fresh; applications choose the
    trade-off.
    """
    params = params or ExperimentParams()
    keys = UniformKeys(params.rows)
    result = FigureResult(
        figure="Extension E1",
        title=f"SI vs MV throughput (req/s) across write fractions "
              f"({clients} clients; writes update the secondary key)",
        columns=("scenario", "write_fraction", "throughput"),
        notes="paper's conclusion quantified: MV wins read-heavy mixes, "
              "SI wins write-heavy ones",
    )
    for label in ("SI", "MV"):
        for fraction in write_fractions:
            # Fresh cluster per point: the MV run mutates view state.
            cluster = build_scenario(
                label.lower(), experiment_config(params.seed),
                params.rows, params.payload_length,
                materialize_payload=(label == "MV"))
            write = write_op(TABLE, keys, SEC_COLUMN,
                             w=params.write_quorum)
            if label == "SI":
                read = index_read_op(TABLE, SEC_COLUMN, keys, sec_value,
                                     [PAYLOAD_COLUMN])
            else:
                read = view_read_op(VIEW_NAME, keys, sec_value,
                                    [PAYLOAD_COLUMN],
                                    r=params.read_quorum)
            op = mixed_op(fraction, write, read)
            summary = run_closed_loop(cluster, op, clients,
                                      params.throughput_duration,
                                      params.warmup)
            result.add_row(label, fraction, summary.throughput)
            cluster.close()
    return result


def crossover_fraction(result: FigureResult) -> Optional[float]:
    """The smallest swept write fraction at which SI matches or beats MV
    (None if MV wins everywhere)."""
    fractions = sorted(set(result.column("write_fraction")))
    for fraction in fractions:
        (si,) = [row[2] for row in result.rows
                 if row[0] == "SI" and row[1] == fraction]
        (mv,) = [row[2] for row in result.rows
                 if row[0] == "MV" and row[1] == fraction]
        if si >= mv:
            return fraction
    return None
