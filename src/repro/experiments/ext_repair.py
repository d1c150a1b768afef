"""Extension E2: view divergence under coordinator crashes, scrubber on/off.

The paper's Section VIII concedes that a coordinator crash between
acknowledging a base Put and completing its view propagation leaves the
view permanently stale — nothing in the protocol ever revisits the row.
This experiment measures that failure mode and the repair subsystem's
answer to it:

1. Populate a base table with a view keyed on a group column.
2. Run an update workload while a propagation-loss hook
   (:func:`~repro.scenarios.adversaries.lose_propagations`)
   deterministically crashes the coordinator of every ``stride``-th
   propagation mid-flight (the base write is acked, the view update is
   lost — ``ViewManager.lost_propagations`` counts them).
3. Sample ground-truth divergence (``repro.repair.divergent_base_keys``:
   base rows whose canonical live view row disagrees with the base
   table) on a fixed cadence, with the scrubber off and on.

Expected shape: with the scrubber off, divergence steps up at each crash
and *never* recovers; with the scrubber on, every step decays back to
zero within a bounded number of scrub rounds, and the scrubber's
time-to-convergence metric bounds the repair latency.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cluster import Cluster
from repro.experiments.calibration import ExperimentParams, experiment_config
from repro.experiments.results import FigureResult
from repro.repair import divergent_base_keys
from repro.scenarios import lose_propagations
from repro.scenarios.workload import retrying
from repro.views import ViewDefinition

__all__ = ["run", "TABLE", "VIEW_NAME"]

TABLE = "BASE"
GROUP_COLUMN = "grp"
PAYLOAD_COLUMN = "val"
VIEW_NAME = "BASE_BY_GRP"
GROUPS = 8

_CRASH_DOWNTIME = 15.0
_SCRUB_INTERVAL = 25.0


def run(params: Optional[ExperimentParams] = None) -> FigureResult:
    """Divergence-over-time curves, scrubber off vs on."""
    params = params or ExperimentParams()
    result = FigureResult(
        figure="Extension E2",
        title="View divergence (rows) over time with coordinator crashes "
              "mid-propagation, scrubber off vs on",
        columns=("scrubber", "time_ms", "divergent_rows"),
    )
    outcomes = {}
    for label, scrub_on in (("off", False), ("on", True)):
        curve, lost, metrics = _run_one(params, scrub_on)
        outcomes[label] = (curve, lost, metrics)
        for time_ms, divergent in curve:
            result.add_row(label, time_ms, divergent)
    off_final = outcomes["off"][0][-1][1]
    on_final = outcomes["on"][0][-1][1]
    lost = outcomes["on"][1]
    metrics = outcomes["on"][2]
    convergence = metrics.time_to_convergence()
    result.notes = (
        f"{lost} propagations lost per run; final divergence "
        f"off={off_final} on={on_final}; "
        + (f"time-to-convergence {convergence:.0f} ms "
           f"({metrics.repairs_applied} repairs over {metrics.rounds} rounds)"
           if convergence is not None
           else "scrubber did not converge within the run"))
    return result


def _run_one(params: ExperimentParams,
             scrub_on: bool) -> Tuple[List[Tuple[float, int]], int, object]:
    """One measured run; returns (curve, lost propagations, scrub metrics)."""
    config = experiment_config(params.seed)
    cluster = Cluster(config)
    cluster.create_table(TABLE)
    view = ViewDefinition(VIEW_NAME, TABLE, GROUP_COLUMN, (PAYLOAD_COLUMN,))
    cluster.create_view(view)
    env = cluster.env
    rows = params.repair_rows

    # Timestamps are explicit small integers (populate: 1..rows, updates:
    # rows+1..) so LWW order is exactly issue order regardless of the
    # simulated clock.
    loader = cluster.client()

    def populate():
        for key in range(rows):
            yield from loader.put(TABLE, key, {
                GROUP_COLUMN: f"g{key % GROUPS}",
                PAYLOAD_COLUMN: f"v0-{key}",
            }, config.replication_factor, key + 1)

    load = env.process(populate(), name="repair-populate")
    env.run(until=load)
    cluster.run_until_idle()

    # Deterministic crash injection: every stride-th propagation loses
    # its coordinator (armed only now, so the initial load is exempt).
    stride = max(2, params.repair_updates // max(1, params.repair_crashes))
    seen = [0]

    def every_stride(_view, _key, _base_ts) -> bool:
        seen[0] += 1
        return seen[0] % stride == 0

    loss = lose_propagations(cluster, params.repair_crashes,
                             _CRASH_DOWNTIME, match=every_stride)

    scrubber = None
    if scrub_on:
        scrubber = cluster.start_scrubber(
            [VIEW_NAME], interval=_SCRUB_INTERVAL,
            row_budget=max(64, rows), rate_limit=0.05)

    rng = cluster.streams.stream("repair-workload")

    clients = [cluster.client(coordinator_id=cid)
               for cid in range(config.nodes)]

    def workload():
        for i in range(params.repair_updates):
            key = rng.randrange(rows)
            if i % 2 == 0:
                column, value = GROUP_COLUMN, f"g{rng.randrange(GROUPS)}"
            else:
                column, value = PAYLOAD_COLUMN, f"v{i + 1}-{key}"
            ts = rows + 1 + i
            yield from retrying(
                env, clients, i,
                lambda client: client.put(TABLE, key, {column: value},
                                          params.write_quorum, ts), 12)
            yield env.timeout(3.0)

    start = env.now
    curve: List[Tuple[float, int]] = []

    def sampler():
        while env.now - start < params.repair_duration:
            yield env.timeout(params.repair_sample_every)
            curve.append((env.now - start,
                          len(divergent_base_keys(cluster, view))))

    env.process(workload(), name="repair-workload")
    sampling = env.process(sampler(), name="divergence-sampler")
    env.run(until=sampling)

    lost = cluster.view_manager.lost_propagations
    metrics = scrubber.metrics if scrubber is not None else None
    if scrubber is not None:
        scrubber.stop()
    loss.stop()
    cluster.run_until_idle()
    return curve, lost, metrics
