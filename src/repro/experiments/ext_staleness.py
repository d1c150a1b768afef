"""Extension E6: bounded-staleness view reads under lossy propagation.

The paper's views are eventually consistent: a coordinator crash between
acking a base Put and finishing the view propagation leaves the view
stale with no bound on *how* stale.  The freshness subsystem
(:mod:`repro.freshness`) turns that unbounded promise into a measurable
one — every view read can carry ``max_staleness_ms`` and is either
served from the view under a staleness certificate or escalated to a
compensation read that merges fresh base-table state over the lagging
keys.

This experiment measures the price of that promise.  One cell per
staleness bound (plus an unbounded cell): populate a grouped table, run
an update workload while a propagation-loss hook
(:func:`~repro.scenarios.adversaries.lose_propagations`) deterministically
crashes the coordinator of every ``stride``-th propagation (base write
acked, view update lost — exactly the wounds the certificate tracks)
with a background scrubber healing wounds on its own cadence, and
interleave bounded view reads at the cell's bound.  Every bounded read
is replayed against the acknowledged-update oracle by
:func:`repro.freshness.check_bounded_reads` — the audit column must stay
zero.

Expected shape: as the bound tightens, the escalation rate rises
monotonically (more certificates miss the bound) and mean read latency
rises with it (compensation consults the base table); the unbounded cell
pays neither.  Base writes use W = 2 (majority): the compensation read's
guarantee needs every acked base write visible to a majority base read.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cluster import Cluster
from repro.errors import ViewError
from repro.experiments.calibration import ExperimentParams, experiment_config
from repro.experiments.results import FigureResult
from repro.freshness import BoundedReadObservation, check_bounded_reads
from repro.scenarios import lose_propagations
from repro.scenarios.workload import RETRIABLE, retrying
from repro.views import BaseUpdate, ViewDefinition

__all__ = ["run", "run_staleness_point", "TABLE", "VIEW_NAME"]

TABLE = "BASE"
GROUP_COLUMN = "grp"
PAYLOAD_COLUMN = "val"
VIEW_NAME = "BASE_BY_GRP"
GROUPS = 10

_CRASH_DOWNTIME = 15.0
_SCRUB_INTERVAL = 40.0
_OP_GAP = 3.0
_WRITE_QUORUM = 2  # majority: the compensation-read guarantee's precondition


def _percentile(samples: List[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1)))
    return ordered[index]


def run_staleness_point(params: ExperimentParams,
                        bound: Optional[float]) -> dict:
    """One bound cell: lossy workload + bounded reads, then the audit.

    Returns raw measurements; :func:`run` tabulates them.
    """
    config = experiment_config(params.seed)
    cluster = Cluster(config)
    cluster.create_table(TABLE)
    view = ViewDefinition(VIEW_NAME, TABLE, GROUP_COLUMN, (PAYLOAD_COLUMN,))
    cluster.create_view(view)
    env = cluster.env
    rows = params.staleness_rows
    applied: List[BaseUpdate] = []

    # Explicit small-integer timestamps (populate: 1..rows, workload:
    # rows+1..) keep LWW order equal to issue order.
    loader = cluster.client()

    def populate():
        for key in range(rows):
            values = {GROUP_COLUMN: f"g{key % GROUPS}",
                      PAYLOAD_COLUMN: f"v0-{key}"}
            yield from loader.put(TABLE, key, values,
                                  config.replication_factor, key + 1)
            for column, value in values.items():
                applied.append(BaseUpdate(key, column, value, key + 1,
                                          acked_at=env.now))

    load = env.process(populate(), name="staleness-populate")
    env.run(until=load)
    cluster.run_until_idle()

    # Deterministic crash injection, armed only after the load.
    stride = max(2, params.staleness_updates
                 // max(1, params.staleness_crashes))
    seen = [0]

    def every_stride(_view, _key, _base_ts) -> bool:
        seen[0] += 1
        return seen[0] % stride == 0

    loss = lose_propagations(cluster, params.staleness_crashes,
                             _CRASH_DOWNTIME, match=every_stride)
    scrubber = cluster.start_scrubber(
        [VIEW_NAME], interval=_SCRUB_INTERVAL,
        row_budget=max(64, rows), rate_limit=0.05)

    # Open-loop schedule on two independent RNG streams: writes and
    # reads each fire at fixed absolute times, so the write/crash/scrub
    # timeline is identical across bound cells and a tighter bound sees
    # the very same staleness the looser one did — the escalation-rate
    # sweep compares decisions, not diverged histories.
    write_rng = cluster.streams.stream("staleness-writes")
    read_rng = cluster.streams.stream("staleness-reads")
    plan = (["w"] * params.staleness_updates
            + ["r"] * params.staleness_reads)
    write_rng.shuffle(plan)
    start = env.now
    horizon = start + len(plan) * _OP_GAP

    observations: List[BoundedReadObservation] = []
    latencies: List[float] = []
    read_failures = [0]
    clients = [cluster.client(coordinator_id=cid)
               for cid in range(config.nodes)]

    def writer():
        writes = 0
        for step, kind in enumerate(plan):
            if kind != "w":
                continue
            target = start + step * _OP_GAP
            if env.now < target:
                yield env.timeout(target - env.now)
            key = write_rng.randrange(rows)
            if writes % 2 == 0:
                column = GROUP_COLUMN
                value = f"g{write_rng.randrange(GROUPS)}"
            else:
                column = PAYLOAD_COLUMN
                value = f"v{writes + 1}-{key}"
            ts = rows + 1 + writes
            writes += 1
            acked, _ = yield from retrying(
                env, clients, step,
                lambda client: client.put(TABLE, key, {column: value},
                                          _WRITE_QUORUM, ts), 12)
            if acked:
                applied.append(BaseUpdate(key, column, value, ts,
                                          acked_at=env.now))

    def one_read(step, group):
        started = env.now
        read, fresh = yield from retrying(
            env, clients, step,
            lambda client: client.get_view_fresh(
                VIEW_NAME, group, (PAYLOAD_COLUMN,), params.read_quorum,
                max_staleness_ms=bound),
            12, retry_on=RETRIABLE + (ViewError,))
        if not read:
            read_failures[0] += 1
            return
        latencies.append(env.now - started)
        if bound is not None:
            observations.append(BoundedReadObservation(
                view_key=group,
                bound_ms=bound,
                as_of=fresh.certificate.as_of,
                rows=tuple((res.base_key, dict(res.values))
                           for res in fresh.results),
                escalated=fresh.escalated,
                issued_at=env.now))

    def read_launcher():
        for step, kind in enumerate(plan):
            if kind != "r":
                continue
            target = start + step * _OP_GAP
            if env.now < target:
                yield env.timeout(target - env.now)
            group = f"g{read_rng.randrange(GROUPS)}"
            env.process(one_read(step, group),
                        name=f"staleness-read-{step}")

    env.process(writer(), name="staleness-writer")
    env.process(read_launcher(), name="staleness-reads")
    cluster.run(until=horizon + 10 * _CRASH_DOWNTIME)
    scrubber.stop()
    loss.stop()
    cluster.run_until_idle()

    manager = cluster.view_manager
    slo = manager.freshness_slo.stats()
    audit = check_bounded_reads(view, observations, applied)
    bounded = slo["reads_bounded"]
    return {
        "simulated_ms": env.now,
        "reads": len(latencies),
        "read_failures": read_failures[0],
        "bounded_reads": bounded,
        "bound_hits": slo["bound_hits"],
        "escalations": slo["escalations"],
        "escalation_rate": (slo["escalations"] / bounded if bounded else 0.0),
        "compensated_keys": slo["compensated_keys"],
        "mean_latency_ms": (sum(latencies) / len(latencies)
                            if latencies else 0.0),
        "p95_latency_ms": _percentile(latencies, 0.95),
        "lost_propagations": manager.lost_propagations,
        "wounds_opened": manager.freshness.wounds_opened,
        "wounds_healed": manager.freshness.wounds_healed,
        "audit_violations": len(audit),
        "audit_failures": audit[:5],
    }


def run(params: Optional[ExperimentParams] = None) -> FigureResult:
    """Sweep the staleness bound from unbounded down to a few ms."""
    params = params or ExperimentParams()
    result = FigureResult(
        figure="Extension E6",
        title="Bounded-staleness view reads: escalation rate and latency "
              "vs staleness bound (crash-lossy propagation, scrubber on)",
        columns=("bound_ms", "reads", "bound_hits", "escalations",
                 "escalation_rate", "compensated_keys", "mean_latency_ms",
                 "p95_latency_ms", "audit_violations"),
    )
    rates: List[Tuple[float, float]] = []
    unbounded_latency = None
    for bound in params.staleness_bounds:
        cell = run_staleness_point(params, bound)
        result.add_row(
            "none" if bound is None else bound,
            cell["reads"], cell["bound_hits"], cell["escalations"],
            round(cell["escalation_rate"], 3), cell["compensated_keys"],
            round(cell["mean_latency_ms"], 3),
            round(cell["p95_latency_ms"], 3), cell["audit_violations"])
        if bound is None:
            unbounded_latency = cell["mean_latency_ms"]
        else:
            rates.append((bound, cell["escalation_rate"]))
    # Loosest-to-tightest, escalation must not fall as the bound drops.
    ordered = [rate for _bound, rate in
               sorted(rates, key=lambda item: -item[0])]
    monotone = all(a <= b for a, b in zip(ordered, ordered[1:]))
    result.notes = (
        f"escalation rate {'rises monotonically' if monotone else 'is NOT monotone'} "
        f"as the bound tightens ({', '.join(f'{r:.2f}' for r in ordered)}); "
        f"unbounded mean read latency {unbounded_latency:.3f} ms; "
        "audit_violations must be zero in every cell")
    return result
