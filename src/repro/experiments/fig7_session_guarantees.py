"""Figure 7: cost of session guarantees on materialized views.

One client issues Put/Get pairs with a configurable client-introduced
gap between them.  SI: the Get goes through the secondary index (always
fresh — index maintenance is synchronous).  MV: the Get goes through the
view under a session guarantee, so it blocks until the Put's propagation
completes.  Reported: mean (pair completion time - gap).

Paper result: the MV pair latency falls as the gap grows (more
propagations finish inside the gap) and levels off once nearly all
propagations beat the gap (~640 ms on their testbed); SI is flat.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.calibration import (
    ExperimentParams,
    experiment_config,
    fig7_config,
)
from repro.experiments.results import FigureResult
from repro.experiments.scenarios import (
    PAYLOAD_COLUMN,
    SEC_COLUMN,
    TABLE,
    VIEW_NAME,
    build_scenario,
    sec_value,
)
from repro.workloads import LatencyRecorder, UniformKeys, value_string

__all__ = ["run"]


def _si_pairs(cluster, params: ExperimentParams, gap: float) -> float:
    """Mean Put+Get pair latency through the secondary index."""
    handle = cluster.client()
    rng = cluster.streams.stream(f"fig7-si-{gap}")
    keys = UniformKeys(params.rows)
    env = cluster.env
    recorder = LatencyRecorder()

    def pairs():
        for _ in range(params.session_pairs):
            key = keys.choose(rng)
            start = env.now
            # The Put updates a non-key column; the Get finds the row by
            # its (unchanged, unique) indexed secondary key.
            yield from handle.put(TABLE, key,
                                  {PAYLOAD_COLUMN: value_string(rng)},
                                  params.write_quorum)
            yield env.timeout(gap)
            yield from handle.get_by_index(TABLE, SEC_COLUMN,
                                           sec_value(key), [PAYLOAD_COLUMN])
            recorder.record(env.now - start - gap)

    process = env.process(pairs(), name="fig7-si")
    env.run(until=process)
    return recorder.mean


def _mv_pairs(cluster, params: ExperimentParams, gap: float) -> float:
    """Mean Put+Get pair latency through the view with a session."""
    handle = cluster.client()
    handle.begin_session()
    rng = cluster.streams.stream(f"fig7-mv-{gap}")
    keys = UniformKeys(params.rows)
    env = cluster.env
    recorder = LatencyRecorder()

    def pairs():
        for _ in range(params.session_pairs):
            key = keys.choose(rng)
            start = env.now
            # The Put updates the view-materialized column; the session
            # guarantee makes the subsequent view Get wait for it.
            yield from handle.put(TABLE, key,
                                  {PAYLOAD_COLUMN: value_string(rng)},
                                  params.write_quorum)
            yield env.timeout(gap)
            yield from handle.get_view(VIEW_NAME, sec_value(key),
                                       [PAYLOAD_COLUMN], params.read_quorum)
            recorder.record(env.now - start - gap)

    process = env.process(pairs(), name="fig7-mv")
    env.run(until=process)
    handle.end_session()
    return recorder.mean


def run(params: Optional[ExperimentParams] = None) -> FigureResult:
    """Run the Figure 7 experiment and return its table."""
    params = params or ExperimentParams()
    result = FigureResult(
        figure="Figure 7",
        title="Avg total latency (ms) of Put/Get pairs with session "
              "guarantees vs client-introduced gap (ms)",
        columns=("scenario", "gap_ms", "pair_latency_ms"),
        notes="paper: MV falls with the gap and levels off ~640 ms; SI flat",
    )
    for gap in params.session_gaps:
        cluster = build_scenario("si", experiment_config(params.seed),
                                 params.rows, params.payload_length)
        result.add_row("SI", gap, _si_pairs(cluster, params, gap))
        cluster.close()
    for gap in params.session_gaps:
        cluster = build_scenario("mv", fig7_config(params.seed),
                                 params.rows, params.payload_length)
        result.add_row("MV", gap, _mv_pairs(cluster, params, gap))
        cluster.close()
    return result
