"""Ablation experiments for the design choices DESIGN.md calls out.

Each function returns a :class:`FigureResult`:

- :func:`combined_get_then_put` — the Section IV-C optimization the
  paper's prototype omitted: folding the view-key Get into the base Put
  round trip should recover most of MV's extra write latency.
- :func:`concurrency_mechanisms` — Section IV-F's two options (lock
  service vs dedicated propagators) under a hot-row workload.
- :func:`materialized_column_count` — the cost of view-materialized
  columns ("the price ... is additional space overhead ... and
  additional view maintenance overhead", Section IV).
- :func:`quorum_settings` — the R/W consistency-latency trade-off of
  Section II.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster import Cluster
from repro.experiments.calibration import ExperimentParams, experiment_config
from repro.experiments.results import FigureResult
from repro.experiments.scenarios import (
    SEC_COLUMN,
    TABLE,
    VIEW_NAME,
    build_scenario,
)
from repro.views import ViewDefinition
from repro.workloads import (
    RangeKeys,
    UniformKeys,
    measure_latency,
    read_op,
    run_closed_loop,
    write_op,
)

__all__ = [
    "combined_get_then_put",
    "concurrency_mechanisms",
    "materialized_column_count",
    "quorum_settings",
    "stale_row_gc",
    "master_vs_decentralized",
]


def combined_get_then_put(
        params: Optional[ExperimentParams] = None) -> FigureResult:
    """MV write latency: separate Get+Put vs the combined round trip."""
    params = params or ExperimentParams()
    result = FigureResult(
        figure="Ablation A1",
        title="MV write latency (ms): separate Get+Put (prototype) vs "
              "combined Get-then-Put (Section IV-C optimization)",
        columns=("variant", "mean_ms"),
        notes="combining saves one replica round trip plus coordinator "
              "work; the view-key read itself is still paid inline",
    )
    for label, combined in (("separate", False), ("combined", True)):
        config = experiment_config(params.seed,
                                   combined_get_then_put=combined)
        cluster = build_scenario("mv", config, params.rows,
                                 params.payload_length,
                                 materialize_payload=False)
        op = write_op(TABLE, UniformKeys(params.rows), SEC_COLUMN,
                      w=params.write_quorum)
        summary = measure_latency(cluster, op, params.latency_requests)
        result.add_row(label, summary.mean_latency)
        cluster.close()
    return result


def concurrency_mechanisms(
        params: Optional[ExperimentParams] = None,
        range_width: int = 10) -> FigureResult:
    """Hot-range write throughput: lock service vs dedicated propagators."""
    params = params or ExperimentParams()
    result = FigureResult(
        figure="Ablation A2",
        title=f"Hot-range (width={range_width}) write throughput (req/s): "
              "Section IV-F concurrency-control options",
        columns=("mechanism", "throughput", "avg_chain_hops"),
    )
    for mechanism in ("locks", "propagators"):
        config = experiment_config(params.seed,
                                   propagation_concurrency=mechanism)
        cluster = build_scenario("mv", config, rows=0, populate=False,
                                 materialize_payload=False)
        op = write_op(TABLE, RangeKeys(range_width), SEC_COLUMN,
                      w=params.write_quorum)
        summary = run_closed_loop(cluster, op, params.skew_clients,
                                  params.skew_duration, params.warmup)
        metrics = cluster.view_manager.maintainer.metrics
        result.add_row(mechanism, summary.throughput,
                       metrics.hops_per_propagation())
        cluster.close()
    return result


def materialized_column_count(
        params: Optional[ExperimentParams] = None) -> FigureResult:
    """Write latency/throughput overhead per view-materialized column."""
    params = params or ExperimentParams()
    result = FigureResult(
        figure="Ablation A3",
        title="MV write cost vs number of view-materialized columns "
              "(updating one materialized column)",
        columns=("materialized_columns", "write_latency_ms"),
        notes="more materialized columns -> larger CopyData on key moves",
    )
    for count in (0, 1, 3, 5):
        config = experiment_config(params.seed)
        cluster = Cluster(config)
        cluster.create_table(TABLE)
        materialized = tuple(f"m{i}" for i in range(count))
        cluster.create_view(ViewDefinition(
            "V_ABL", TABLE, SEC_COLUMN, materialized))
        # Workload: update the view KEY (forces CopyData of all
        # materialized cells on every propagation).
        loader = cluster.client()
        env = cluster.env
        rows = min(params.rows, 500)

        def load(loader=loader, rows=rows, materialized=materialized):
            for key in range(rows):
                values = {SEC_COLUMN: f"s{key}"}
                for column in materialized:
                    values[column] = f"{column}-{key}"
                yield from loader.put(TABLE, key, values,
                                      cluster.config.replication_factor)

        process = env.process(load())
        env.run(until=process)
        cluster.run_until_idle()
        op = write_op(TABLE, UniformKeys(rows), SEC_COLUMN,
                      w=params.write_quorum)
        summary = measure_latency(cluster, op,
                                  min(params.latency_requests, 200))
        result.add_row(count, summary.mean_latency)
        cluster.close()
    return result


def stale_row_gc(params: Optional[ExperimentParams] = None,
                 range_width: int = 5) -> FigureResult:
    """Hot-range rekeying with and without the stale-row collector.

    The paper's versioned views accumulate stale rows forever; the GC
    extension (``repro.views.gc``) prunes old rows.  Reported: view size and chain statistics after a hot-range run.
    """
    from repro.views import StaleRowCollector, check_view, compute_stats

    params = params or ExperimentParams()
    # The GC question (does collection bound garbage and chain lengths
    # without hurting foreground throughput?) is fully visible at a
    # moderate hot-range intensity; the extreme Figure 8 setting only
    # makes the drain quadratically slower (hundred-hop chains), so the
    # ablation caps its own workload scale.
    clients = min(params.skew_clients, 6)
    duration = min(params.skew_duration, 600.0)
    result = FigureResult(
        figure="Ablation A5",
        title=f"Stale-row GC during hot-range (width={range_width}) "
              "view-key updates",
        columns=("gc", "throughput", "stale_rows", "max_chain",
                 "mean_chain"),
        notes="GC bounds view garbage and chain lengths; correctness "
              "invariants hold either way",
    )
    for label, enabled in (("off", False), ("on", True)):
        config = experiment_config(params.seed)
        cluster = build_scenario("mv", config, rows=0, populate=False,
                                 materialize_payload=False)
        collector = None
        if enabled:
            collector = StaleRowCollector(
                cluster, [VIEW_NAME], interval=100.0, horizon_ms=150.0)
        op = write_op(TABLE, RangeKeys(range_width), SEC_COLUMN,
                      w=params.write_quorum)
        summary = run_closed_loop(cluster, op, clients,
                                  min(duration, params.skew_duration),
                                  min(params.warmup, duration / 2))
        # Drain in-flight maintenance, stop the periodic collector, and
        # (in the GC configuration) run one final quiesced collection
        # pass — the operator's "compact now" — so the measured end
        # state is deterministic rather than dependent on where the last
        # periodic pass happened to stop.
        cluster.run(until=cluster.env.now + 300.0)
        if collector is not None:
            collector.stop()
            cluster.run_until_idle()
            from repro.views.gc import collect_stale_rows

            view = cluster.view_manager.view(VIEW_NAME)
            final = cluster.env.process(collect_stale_rows(
                cluster, view, cutoff_base_ts=2 ** 62))
            cluster.env.run(until=final)
        cluster.run_until_idle()
        view = cluster.view_manager.view(VIEW_NAME)
        violations = check_view(cluster, view)
        if violations:
            raise AssertionError(f"GC broke the view: {violations[:3]}")
        stats = compute_stats(cluster, view)
        result.add_row(label, summary.throughput, stats.stale_rows,
                       stats.max_chain_length, stats.mean_chain_length)
    return result


def master_vs_decentralized(
        params: Optional[ExperimentParams] = None) -> FigureResult:
    """The paper's §IV-A design fork, measured.

    Master-based (PNUTS-style) maintenance needs no versioned views —
    each row's master serializes its updates and propagates them in
    order — while the paper's decentralized design lets any coordinator
    propagate at the cost of the view-key pre-read and stale-row
    machinery.  Both maintain the same view over the same view-key-
    update workload; reported: client write latency and throughput.
    (The master design's *availability* cost under node failure is
    demonstrated in ``tests/views/test_master.py``.)
    """
    from repro.views.master import MasterBasedViews
    from repro.workloads import value_string

    params = params or ExperimentParams()
    result = FigureResult(
        figure="Ablation A6",
        title="View maintenance designs: decentralized (paper) vs "
              "master-based (PNUTS-style, §IV-A)",
        columns=("design", "write_latency_ms", "write_throughput"),
        notes="masters make maintenance cheaper but every row's writes "
              "depend on one node (no failover implemented, as in §IV-A)",
    )
    keys = UniformKeys(params.rows)
    clients = 6
    duration = min(params.throughput_duration, 800.0)
    warmup = min(params.warmup, duration / 4)

    # Decentralized: the normal client path (Algorithm 1).
    cluster = build_scenario("mv", experiment_config(params.seed),
                             params.rows, params.payload_length,
                             materialize_payload=False)
    op = write_op(TABLE, keys, SEC_COLUMN, w=params.write_quorum)
    latency = measure_latency(cluster, op,
                              min(params.latency_requests, 300))
    throughput = run_closed_loop(cluster, op, clients, duration, warmup)
    result.add_row("decentralized", latency.mean_latency,
                   throughput.throughput)
    cluster.close()

    # Master-based: the same workload routed through row masters.
    cluster = build_scenario("bt", experiment_config(params.seed),
                             params.rows, params.payload_length)
    masters = MasterBasedViews(cluster)
    masters.register(ViewDefinition("V_MASTER", TABLE, SEC_COLUMN))

    def master_op(client, rng):
        key = keys.choose(rng)
        yield from masters.put(TABLE, key,
                               {SEC_COLUMN: value_string(rng)},
                               params.write_quorum)

    latency = measure_latency(cluster, master_op,
                              min(params.latency_requests, 300))
    throughput = run_closed_loop(cluster, master_op, clients, duration,
                                 warmup)
    result.add_row("master-based", latency.mean_latency,
                   throughput.throughput)
    cluster.close()
    return result


def quorum_settings(
        params: Optional[ExperimentParams] = None) -> FigureResult:
    """Read/write latency across R/W settings (Section II trade-off)."""
    params = params or ExperimentParams()
    result = FigureResult(
        figure="Ablation A4",
        title="Base-table latency (ms) vs read/write quorum (N=3)",
        columns=("R", "W", "read_ms", "write_ms"),
        notes="R+W>N gives quorum consensus at higher latency",
    )
    keys = UniformKeys(min(params.rows, 1000))
    for r, w in ((1, 1), (1, 3), (2, 2), (3, 1)):
        cluster = build_scenario("bt", experiment_config(params.seed),
                                 min(params.rows, 1000),
                                 params.payload_length)
        reads = measure_latency(
            cluster, read_op(TABLE, keys, ["payload"], r=r),
            min(params.latency_requests, 200))
        writes = measure_latency(
            cluster, write_op(TABLE, keys, SEC_COLUMN, w=w),
            min(params.latency_requests, 200))
        result.add_row(r, w, reads.mean_latency, writes.mean_latency)
        cluster.close()
    return result
