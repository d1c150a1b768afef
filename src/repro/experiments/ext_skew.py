"""Extension E5: adaptive heavy/light view maintenance under Zipf skew.

Figure 8 shows eager maintenance slowing as updates concentrate on
few rows: view-key transitions never coalesce, so every update of a
hot row is a full propagation queued on that row's chain, and
closed-loop clients stall behind the backpressure tokens the queue
holds.  ``repro.views.skew`` answers with
adaptive maintenance: a decayed update-frequency tracker classifies
chains heavy/light with hysteresis; a heavy chain's outbox records take
no token and fold into one survivor per node, which after a short
window re-propagates the base row's *current* state, bypassing the
per-update chain entirely.

This experiment sweeps a Zipfian exponent and runs the same closed-loop
view-key-update workload twice per point — eager-only versus adaptive —
then drains the outboxes and counts residual divergence.
Expected shape: near-identical throughput at low skew (little
promotes), then a widening gap as the head key heats up, reaching
>= 2x at ``theta >= 1.2`` with zero divergent rows after quiescence
either way.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster import ClusterConfig
from repro.experiments.calibration import ExperimentParams, experiment_config
from repro.experiments.results import FigureResult
from repro.experiments.scenarios import (
    SEC_COLUMN,
    TABLE,
    build_scenario,
    mv_view_definition,
)
from repro.repair import divergent_base_keys
from repro.workloads import ZipfianKeys, run_closed_loop, write_op

__all__ = ["run", "run_skew_point"]


def run_skew_point(config: ClusterConfig, *, theta: float, population: int,
                   clients: int, duration: float, warmup: float,
                   write_quorum: int = 1) -> dict:
    """One (config, theta) cell: closed-loop run, drain, audit.

    Returns raw measurements.  The workload is Figure 8's — every
    operation updates the view-key column — but keys come from a
    Zipfian chooser instead of a shrinking uniform range.
    """
    cluster = build_scenario("mv", config, rows=0, populate=False,
                             materialize_payload=False)
    op = write_op(TABLE, ZipfianKeys(population, theta), SEC_COLUMN,
                  w=write_quorum)
    summary = run_closed_loop(cluster, op, clients, duration, warmup)
    # Quiesce: fold windows close, the outboxes drain.
    manager = cluster.view_manager
    env = cluster.env
    drain_from = env.now
    while manager.pending_propagations:
        cluster.run(until=env.now + 1.0)
    drain_ms = env.now - drain_from
    cluster.run_until_idle()

    view = mv_view_definition(materialize_payload=False)

    # Same-key updates racing through *different* coordinators can leave
    # a stale live row behind (per-node chain FIFOs do not order across
    # nodes); that is standing-scrubber territory in both modes, so
    # quiescence mirrors the scenario runner: converge replicas, then
    # scrub until the divergence oracle is empty.
    env.run(until=cluster.repair_table(TABLE))
    env.run(until=cluster.repair_table(view.name))
    scrub_rounds = 0
    if divergent_base_keys(cluster, view):
        scrubber = cluster.start_scrubber(interval=25.0)
        while scrub_rounds < 40 and divergent_base_keys(cluster, view):
            scrub_rounds += 1
            cluster.run(until=env.now + 50.0)
        scrubber.stop()
        cluster.run_until_idle()
        env.run(until=cluster.repair_table(view.name))

    skew = manager.skew_stats()
    return {
        "throughput": summary.throughput,
        "folded": skew["folded_records"],
        "heavy_keys": skew["heavy_keys"],
        "abandoned": manager.abandoned_propagations,
        "drain_ms": drain_ms,
        "divergent_rows": len(divergent_base_keys(cluster, view)),
    }


def run(params: Optional[ExperimentParams] = None) -> FigureResult:
    """Sweep Zipf exponents, eager versus adaptive maintenance."""
    params = params or ExperimentParams()
    result = FigureResult(
        figure="Extension E5",
        title=f"Write throughput (req/s) vs Zipf exponent "
              f"({params.zipf_clients} clients updating the view key over "
              f"{params.zipf_population} keys; eager vs adaptive)",
        columns=("theta", "eager_throughput", "adaptive_throughput",
                 "speedup", "folded", "heavy_keys", "abandoned",
                 "drain_ms", "divergent_rows"),
        notes="adaptive folds a heavy chain's records into one survivor "
              "per node; expected >=2x over eager at theta >= 1.2, zero "
              "residual divergence; abandoned and drain_ms (outboxes "
              "empty after the last client op) are the adaptive run's",
    )
    for theta in params.zipf_thetas:
        cells = {}
        for mode, adaptive in (("eager", False), ("adaptive", True)):
            config = experiment_config(seed=params.seed,
                                       skew_adaptive=adaptive)
            cells[mode] = run_skew_point(
                config, theta=theta,
                population=params.zipf_population,
                clients=params.zipf_clients,
                duration=params.zipf_duration,
                warmup=params.warmup,
                write_quorum=params.write_quorum)
        eager, adaptive = cells["eager"], cells["adaptive"]
        speedup = (adaptive["throughput"] / eager["throughput"]
                   if eager["throughput"] else float("inf"))
        result.add_row(theta, eager["throughput"], adaptive["throughput"],
                       round(speedup, 2), adaptive["folded"],
                       adaptive["heavy_keys"], adaptive["abandoned"],
                       round(adaptive["drain_ms"]),
                       eager["divergent_rows"] + adaptive["divergent_rows"])
    return result
