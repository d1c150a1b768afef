"""Extension E3: queue-based load leveling under a write burst.

The outbox pipeline's pitch (see ``repro.views.outbox``): base Puts keep
acking at storage speed while view maintenance drains from a bounded
per-node log.  This experiment measures that behaviour directly:

1. Populate a base table with a view keyed on a group column.
2. Run a *steady* update phase (arrival gap comfortably above the
   propagation service time — the logs stay near-empty).
3. Switch to a *burst* phase: the same updates arriving
   ``outburst_burst_factor`` (10x) faster, concentrated on a hot key
   subset through a single coordinator.
4. Stop the clients and let the backlog *drain*.

A sampler records the total outbox queue depth and the count of
unresolved records on a fixed cadence through all three phases.
Expected shape: depth ~0 while steady, climbing during the burst but
**bounded** by ``max_pending_propagations`` (backpressure throttles
producers; hot-key coalescing collapses superseded refreshes), then
decaying to zero during drain — after which the view shows **zero
residual divergence** from the base table (the backlog was lag, never
loss).
"""

from __future__ import annotations

from typing import Optional

from repro.cluster import Cluster
from repro.experiments.calibration import ExperimentParams, experiment_config
from repro.experiments.results import FigureResult
from repro.repair import divergent_base_keys
from repro.sim.latency import Fixed
from repro.views import ViewDefinition

__all__ = ["run", "run_burst", "TABLE", "VIEW_NAME"]

TABLE = "BASE"
GROUP_COLUMN = "grp"
PAYLOAD_COLUMN = "val"
VIEW_NAME = "BASE_BY_GRP"
GROUPS = 8

_PROPAGATION_DELAY = 4.0  # ms: slower than burst arrivals, faster than steady


def run_burst(config, *, keys: int, steady_ops: int, burst_ops: int,
              steady_gap: float, burst_factor: float, sample_every: float,
              write_quorum: int = 1) -> dict:
    """Run the steady/burst/drain workload; return raw measurements."""
    cluster = Cluster(config)
    cluster.create_table(TABLE)
    view = ViewDefinition(VIEW_NAME, TABLE, GROUP_COLUMN, (PAYLOAD_COLUMN,))
    cluster.create_view(view)
    env = cluster.env
    manager = cluster.view_manager

    loader = cluster.client()

    def populate():
        for key in range(keys):
            yield from loader.put(TABLE, key, {
                GROUP_COLUMN: f"g{key % GROUPS}",
                PAYLOAD_COLUMN: f"v0-{key}",
            }, config.replication_factor, key + 1)

    env.run(until=env.process(populate(), name="outburst-populate"))
    cluster.run_until_idle()

    phase = ["steady"]
    done = [False]
    burst_ended_at = [0.0]
    # The burst hammers a handful of keys so per-chain queues form and
    # the coalescing rule gets to collapse superseded refreshes.
    hot_keys = max(2, keys // 24)

    def workload():
        # Steady phase: rotating coordinators, uniform keys, relaxed gap.
        clients = {}
        ts = keys + 1
        for i in range(steady_ops):
            coordinator_id = i % config.nodes
            handle = clients.get(coordinator_id)
            if handle is None:
                handle = cluster.client(coordinator_id=coordinator_id)
                clients[coordinator_id] = handle
            key = i % keys
            yield from handle.put(
                TABLE, key, {GROUP_COLUMN: f"g{(key + i) % GROUPS}"},
                write_quorum, ts)
            ts += 1
            yield env.timeout(steady_gap)
        # Burst phase: 10x the arrival rate, hot keys, one coordinator.
        phase[0] = "burst"
        hot = cluster.client(coordinator_id=1)
        gap = steady_gap / burst_factor
        for i in range(burst_ops):
            key = i % hot_keys
            if i % 4 == 0:
                # View-key transitions never coalesce (each writes a
                # stale row readers rely on) — keep a few in the mix.
                values = {GROUP_COLUMN: f"g{(key + i) % GROUPS}"}
            else:
                values = {PAYLOAD_COLUMN: f"v{ts}-{key}"}
            yield from hot.put(TABLE, key, values, write_quorum, ts)
            ts += 1
            yield env.timeout(gap)
        phase[0] = "drain"
        burst_ended_at[0] = env.now
        done[0] = True

    start = env.now
    curve = []  # (phase, time_ms, queue_depth, unresolved)
    peak = {"steady": 0, "burst": 0, "drain": 0}

    def sampler():
        while not (done[0] and manager.pending_propagations == 0):
            yield env.timeout(sample_every)
            stats = manager.outbox_stats()
            curve.append((phase[0], env.now - start, stats["depth"],
                          stats["lag"]))
            peak[phase[0]] = max(peak[phase[0]], stats["depth"])

    env.process(workload(), name="outburst-workload")
    sampling = env.process(sampler(), name="outburst-sampler")
    env.run(until=sampling)
    cluster.run_until_idle()

    stats = manager.outbox_stats()
    return {
        "curve": curve,
        "peak": peak,
        "stats": stats,
        "capacity_bound": (config.max_pending_propagations
                           * config.nodes),
        "per_node_bound": config.max_pending_propagations,
        "drain_ms": env.now - burst_ended_at[0],
        "divergent_rows": len(divergent_base_keys(cluster, view)),
        "completed": manager.completed_propagations,
        "lost": manager.lost_propagations,
        "ops": steady_ops + burst_ops,
        "simulated_ms": env.now - start,
    }


def run(params: Optional[ExperimentParams] = None) -> FigureResult:
    """Queue depth over time through steady / 10x burst / drain."""
    params = params or ExperimentParams()
    config = experiment_config(
        params.seed,
        propagation_delay=Fixed(_PROPAGATION_DELAY),
        max_pending_propagations=params.outburst_capacity)
    outcome = run_burst(
        config,
        keys=params.outburst_keys,
        steady_ops=params.outburst_steady_ops,
        burst_ops=params.outburst_burst_ops,
        steady_gap=params.outburst_steady_gap,
        burst_factor=params.outburst_burst_factor,
        sample_every=params.outburst_sample_every,
        write_quorum=params.write_quorum)

    result = FigureResult(
        figure="Extension E3",
        title="Outbox queue depth over time: steady load, "
              f"{params.outburst_burst_factor:.0f}x write burst, drain",
        columns=("phase", "time_ms", "queue_depth", "unresolved"),
    )
    for row in outcome["curve"]:
        result.add_row(*row)
    stats = outcome["stats"]
    result.notes = (
        f"peak queue depth steady={outcome['peak']['steady']} "
        f"burst={outcome['peak']['burst']} (per-node bound "
        f"{outcome['per_node_bound']}); "
        f"coalesce ratio {stats['coalesce_ratio']:.2f} "
        f"({stats['coalesced']}/{stats['appended']} records); "
        f"drained in {outcome['drain_ms']:.0f} ms; "
        f"residual divergence {outcome['divergent_rows']} rows")
    return result
