"""Macrobenchmark topics: scaled versions of the paper's evaluation.

These reuse the experiment scenario builders so the measured system is
exactly what figures 4/6 and extension E2 run, at benchmark-friendly
sizes:

- ``fig4_read`` — closed-loop read throughput, base table vs
  materialized view (the paper's Figure 4 axis);
- ``fig6_write`` — closed-loop secondary-key write throughput with
  asynchronous view maintenance (Figure 6), including how long the
  propagation backlog takes to drain;
- ``ext_repair_scrub`` — scrub throughput of the background view
  scrubber healing crash-induced base/view divergence (extension E2);
- ``ext_outburst`` — the outbox pipeline absorbing a 10x write burst
  (extension E3): bounded queue depth, coalescing, full drain;
- ``ext_skew`` — eager versus adaptive heavy/light view maintenance
  under Zipf skew (extension E5): near-parity at low skew, >= 2x for
  adaptive at high skew, zero residual divergence after quiescence;
- ``ext_staleness`` — bounded-staleness view reads under crash-lossy
  propagation (extension E6): escalation rate rising monotonically as
  the bound tightens, zero oracle-audit violations.

``simulated_ops`` counts completed client operations (or, for the
scrubber, rows scanned) — dividing by wall seconds gives the headline
simulated-ops-per-wall-second figure.
"""

from __future__ import annotations

from repro.bench.harness import BenchParams, TopicResult

__all__ = ["TOPICS"]


def _sizes(params: BenchParams) -> dict:
    return {
        "rows": params.scaled(300, 2_000),
        "duration": float(params.scaled(300, 1_500)),
        "warmup": float(params.scaled(50, 250)),
        "clients": params.scaled(4, 8),
        "payload_length": 16,
    }


def fig4_read(params: BenchParams) -> TopicResult:
    """Figure-4-shaped read throughput: BT and MV closed-loop reads."""
    from repro.experiments.calibration import experiment_config
    from repro.experiments.scenarios import (
        PAYLOAD_COLUMN,
        TABLE,
        VIEW_NAME,
        build_scenario,
        sec_value,
    )
    from repro.workloads import (
        UniformKeys,
        read_op,
        run_closed_loop,
        view_read_op,
    )

    sizes = _sizes(params)
    keys = UniformKeys(sizes["rows"])
    ops_by_scenario = {}
    total_ops = 0
    total_sim_ms = 0.0
    factories = {
        "bt": lambda: read_op(TABLE, keys, [PAYLOAD_COLUMN]),
        "mv": lambda: view_read_op(VIEW_NAME, keys, sec_value,
                                   [PAYLOAD_COLUMN]),
    }
    for kind, make_op in factories.items():
        cluster = build_scenario(kind, experiment_config(params.seed),
                                 sizes["rows"], sizes["payload_length"])
        summary = run_closed_loop(cluster, make_op(), sizes["clients"],
                                  sizes["duration"], sizes["warmup"])
        ops_by_scenario[kind] = summary.operations
        total_ops += summary.operations
        total_sim_ms += summary.duration
    return TopicResult(
        simulated_ops=total_ops,
        params=sizes,
        simulated_duration_ms=total_sim_ms,
        metrics={f"{kind}_ops": count
                 for kind, count in ops_by_scenario.items()},
    )


def fig6_write(params: BenchParams) -> TopicResult:
    """Figure-6-shaped write throughput: BT and MV secondary-key updates.

    The MV scenario pays asynchronous view maintenance for every update;
    ``propagation_latency`` reports the simulated ms needed to drain the
    outstanding propagation backlog once clients stop.
    """
    from repro.experiments.calibration import experiment_config
    from repro.experiments.scenarios import (
        SEC_COLUMN,
        TABLE,
        build_scenario,
    )
    from repro.workloads import UniformKeys, run_closed_loop, write_op

    sizes = _sizes(params)
    keys = UniformKeys(sizes["rows"])
    metrics = {}
    total_ops = 0
    total_sim_ms = 0.0
    drain_ms = 0.0
    for kind in ("bt", "mv"):
        cluster = build_scenario(kind, experiment_config(params.seed),
                                 sizes["rows"], sizes["payload_length"],
                                 materialize_payload=False)
        op = write_op(TABLE, keys, SEC_COLUMN)
        summary = run_closed_loop(cluster, op, sizes["clients"],
                                  sizes["duration"], sizes["warmup"])
        metrics[f"{kind}_ops"] = summary.operations
        total_ops += summary.operations
        total_sim_ms += summary.duration
        if kind == "mv":
            stopped_at = cluster.env.now
            cluster.run_until_idle()
            drain_ms = cluster.env.now - stopped_at
            manager = cluster.view_manager
            metrics["completed_propagations"] = manager.completed_propagations
            metrics["abandoned_propagations"] = manager.abandoned_propagations
    return TopicResult(
        simulated_ops=total_ops,
        params=sizes,
        simulated_duration_ms=total_sim_ms,
        propagation_latency={"drain_ms": round(drain_ms, 6)},
        metrics=metrics,
    )


def ext_repair_scrub(params: BenchParams) -> TopicResult:
    """Scrub throughput: the view scrubber healing lost propagations.

    Coordinator crashes are injected mid-propagation (the paper's
    Section VIII caveat), then the background scrubber runs for a fixed
    simulated window.  ``simulated_ops`` counts rows scanned by the
    scrubber; ``propagation_latency`` reports its time-to-convergence.
    """
    from repro.cluster import Cluster
    from repro.cluster.chaos import ChaosMonkey
    from repro.errors import NodeDownError, QuorumError
    from repro.experiments.calibration import experiment_config
    from repro.views import ViewDefinition

    rows = params.scaled(40, 120)
    updates = params.scaled(30, 80)
    crashes = params.scaled(3, 6)
    duration = float(params.scaled(400, 800))
    groups = 8

    config = experiment_config(params.seed)
    cluster = Cluster(config)
    cluster.create_table("BASE")
    cluster.create_view(ViewDefinition("BASE_BY_GRP", "BASE", "grp",
                                       ("val",)))
    env = cluster.env
    loader = cluster.client()

    def populate():
        for key in range(rows):
            yield from loader.put("BASE", key, {
                "grp": f"g{key % groups}",
                "val": f"v0-{key}",
            }, config.replication_factor, key + 1)

    env.run(until=env.process(populate(), name="bench-populate"))
    cluster.run_until_idle()

    monkey = ChaosMonkey(cluster, auto=False)
    stride = max(2, updates // max(1, crashes))
    seen = [0]

    def every_stride(_view, _key, _base_ts) -> bool:
        seen[0] += 1
        return seen[0] % stride == 0

    monkey.crash_during_propagation(count=crashes, downtime=15.0,
                                    match=every_stride)
    scrubber = cluster.start_scrubber(["BASE_BY_GRP"], interval=25.0,
                                      row_budget=max(64, rows),
                                      rate_limit=0.05)
    rng = cluster.streams.stream("bench-scrub-workload")

    def workload():
        clients = {}
        for i in range(updates):
            key = rng.randrange(rows)
            if i % 2 == 0:
                column, value = "grp", f"g{rng.randrange(groups)}"
            else:
                column, value = "val", f"v{i + 1}-{key}"
            ts = rows + 1 + i
            for attempt in range(12):
                coordinator_id = (i + attempt) % config.nodes
                handle = clients.get(coordinator_id)
                if handle is None:
                    handle = cluster.client(coordinator_id=coordinator_id)
                    clients[coordinator_id] = handle
                try:
                    yield from handle.put("BASE", key, {column: value},
                                          1, ts)
                except (NodeDownError, QuorumError):
                    yield env.timeout(5.0)
                    continue
                break
            yield env.timeout(3.0)

    env.process(workload(), name="bench-scrub-workload")
    start = env.now
    env.run(until=start + duration)
    metrics = scrubber.metrics
    scrubber.stop()
    monkey.stop()
    cluster.run_until_idle()

    convergence = metrics.time_to_convergence()
    return TopicResult(
        simulated_ops=metrics.rows_scanned,
        params={"rows": rows, "updates": updates, "crashes": crashes,
                "duration": duration},
        simulated_duration_ms=duration,
        propagation_latency=(
            {"time_to_convergence_ms": round(convergence, 6)}
            if convergence is not None else None),
        metrics={
            "rounds": metrics.rounds,
            "divergences_found": metrics.divergences_found,
            "repairs_applied": metrics.repairs_applied,
            "lost_propagations": cluster.view_manager.lost_propagations,
        },
    )


def ext_outburst(params: BenchParams) -> TopicResult:
    """Outbox load leveling: steady load, 10x write burst, drain.

    Runs the extension E3 workload (``repro.experiments.ext_outburst``)
    at benchmark sizes.  ``simulated_ops`` counts client Puts completed;
    ``propagation_latency`` reports how long the backlog took to drain
    after the burst stopped.  The residual-divergence metric must be 0:
    the backlog is propagation lag, never loss.
    """
    from repro.experiments.calibration import experiment_config
    from repro.experiments.ext_outburst import _PROPAGATION_DELAY, run_burst
    from repro.sim.latency import Fixed

    keys = params.scaled(32, 96)
    steady_ops = params.scaled(20, 60)
    burst_ops = params.scaled(100, 240)
    capacity = 32
    config = experiment_config(
        params.seed,
        propagation_delay=Fixed(_PROPAGATION_DELAY),
        max_pending_propagations=capacity)
    outcome = run_burst(config, keys=keys, steady_ops=steady_ops,
                        burst_ops=burst_ops, steady_gap=6.0,
                        burst_factor=10.0, sample_every=5.0)
    stats = outcome["stats"]
    return TopicResult(
        simulated_ops=outcome["ops"],
        params={"keys": keys, "steady_ops": steady_ops,
                "burst_ops": burst_ops, "capacity": capacity},
        simulated_duration_ms=outcome["simulated_ms"],
        propagation_latency={"drain_ms": round(outcome["drain_ms"], 6)},
        metrics={
            "peak_depth_steady": outcome["peak"]["steady"],
            "peak_depth_burst": outcome["peak"]["burst"],
            "coalesced": stats["coalesced"],
            "coalesce_ratio": round(stats["coalesce_ratio"], 6),
            "completed_propagations": outcome["completed"],
            "residual_divergent_rows": outcome["divergent_rows"],
        },
    )


def ext_skew(params: BenchParams) -> TopicResult:
    """Adaptive heavy/light maintenance under Zipf skew (extension E5).

    Runs the extension E5 workload (``repro.experiments.ext_skew``) at a
    low and a high Zipf exponent, eager versus adaptive.  The metrics
    carry the crossover's shape: ``speedup_high`` (theta = 1.2) reads
    2.35x at full size and 1.98x at ``--quick`` sizes (128 keys, 4
    clients), ``speedup_low`` (theta = 0.2) 1.04x and 1.08x — the flat
    end — and ``residual_divergent_rows`` must be 0 in every cell:
    folded deltas are lag, never loss.
    """
    from repro.experiments.ext_skew import (
        adaptive_overrides,
        run_skew_point,
        skew_config,
    )

    population = params.scaled(128, 512)
    clients = params.scaled(4, 10)
    duration = float(params.scaled(300, 1_200))
    warmup = float(params.scaled(50, 250))
    theta_low, theta_high = 0.2, 1.2

    cells = {}
    total_ops = 0
    total_sim_ms = 0.0
    for theta_name, theta in (("low", theta_low), ("high", theta_high)):
        for mode, overrides in (("eager", {}),
                                ("adaptive", adaptive_overrides())):
            config = skew_config(params.seed, **overrides)
            cell = run_skew_point(config, theta=theta,
                                  population=population, clients=clients,
                                  duration=duration, warmup=warmup)
            cells[(theta_name, mode)] = cell
            total_ops += cell["operations"]
            total_sim_ms += duration - warmup

    def speedup(theta_name: str) -> float:
        eager = cells[(theta_name, "eager")]["throughput"]
        adaptive = cells[(theta_name, "adaptive")]["throughput"]
        return adaptive / eager if eager else float("inf")

    residual = sum(cell["divergent_rows"] for cell in cells.values())
    return TopicResult(
        simulated_ops=total_ops,
        params={"population": population, "clients": clients,
                "duration": duration, "theta_low": theta_low,
                "theta_high": theta_high},
        simulated_duration_ms=total_sim_ms,
        metrics={
            "eager_ops_low": cells[("low", "eager")]["operations"],
            "adaptive_ops_low": cells[("low", "adaptive")]["operations"],
            "eager_ops_high": cells[("high", "eager")]["operations"],
            "adaptive_ops_high": cells[("high", "adaptive")]["operations"],
            "speedup_low": round(speedup("low"), 3),
            "speedup_high": round(speedup("high"), 3),
            "folded": cells[("high", "adaptive")]["folded"],
            "heavy_keys": cells[("high", "adaptive")]["heavy_keys"],
            "residual_divergent_rows": residual,
        },
    )


def ext_staleness(params: BenchParams) -> TopicResult:
    """Bounded-staleness view reads under lossy propagation (extension E6).

    Runs the extension E6 workload (``repro.experiments.ext_staleness``)
    at benchmark sizes: one unbounded cell plus a loose-to-tight bound
    sweep over the same open-loop write/crash/scrub timeline.  The
    metrics carry the acceptance gates: ``escalation_monotone`` must be
    1 (the escalation rate rises as the bound tightens),
    ``audit_violations`` must be 0 in every cell (each bounded read
    replayed against the acknowledged-update oracle), and the unbounded
    cell's mean latency must stay within noise of a certificate-free
    view read.
    """
    from dataclasses import replace

    from repro.experiments.calibration import ExperimentParams
    from repro.experiments.ext_staleness import run_staleness_point

    bounds = (None, 80.0, 30.0, 10.0)
    exp = replace(
        ExperimentParams(seed=params.seed),
        staleness_rows=params.scaled(32, 96),
        staleness_updates=params.scaled(30, 90),
        staleness_crashes=params.scaled(4, 8),
        staleness_reads=params.scaled(40, 120),
        staleness_bounds=bounds,
    )
    cells = {}
    total_reads = 0
    total_sim_ms = 0.0
    for bound in bounds:
        cell = run_staleness_point(exp, bound)
        cells[bound] = cell
        total_reads += cell["reads"]
        total_sim_ms += cell["simulated_ms"]

    rates = [cells[b]["escalation_rate"] for b in bounds if b is not None]
    monotone = all(a <= b for a, b in zip(rates, rates[1:]))
    return TopicResult(
        simulated_ops=total_reads,
        params={"rows": exp.staleness_rows,
                "updates": exp.staleness_updates,
                "crashes": exp.staleness_crashes,
                "reads_per_cell": exp.staleness_reads,
                "bounds": ["none" if b is None else b for b in bounds]},
        simulated_duration_ms=total_sim_ms,
        metrics={
            "escalation_rates": rates,
            "escalation_monotone": int(monotone),
            "escalations_tightest": cells[bounds[-1]]["escalations"],
            "compensated_keys_tightest":
                cells[bounds[-1]]["compensated_keys"],
            "unbounded_mean_latency_ms":
                round(cells[None]["mean_latency_ms"], 6),
            "tightest_mean_latency_ms":
                round(cells[bounds[-1]]["mean_latency_ms"], 6),
            "wounds_opened": cells[bounds[-1]]["wounds_opened"],
            "wounds_healed": cells[bounds[-1]]["wounds_healed"],
            "read_failures": sum(c["read_failures"]
                                 for c in cells.values()),
            "audit_violations": sum(c["audit_violations"]
                                    for c in cells.values()),
        },
    )


TOPICS = {
    "fig4_read": fig4_read,
    "fig6_write": fig6_write,
    "ext_repair_scrub": ext_repair_scrub,
    "ext_outburst": ext_outburst,
    "ext_skew": ext_skew,
    "ext_staleness": ext_staleness,
}
