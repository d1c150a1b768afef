"""The per-layer metric table: names, units and how each is derived.

Counts come from the tracer's wrappers (:mod:`trace`) and from the
system's own public stats (``outbox_stats()``, ``LockService.stats()``,
``PropagationMetrics``, ``freshness_stats()``, ...) read before and
after the window and differenced.  Every lookup is tolerant: a stat or
wrap target that no longer exists makes its metrics ``None``, not a
crash.  On a workload with no view defined the ``views.*`` and
``freshness.*`` counts are 0 — nothing ran — while their percentiles
are ``None`` — nothing to take a percentile of.

"per op" means per completed non-probe client operation (warm-up
included: the traced window is the whole run, through the final drain).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .trace import BENCH_LAYER, KERNEL_LAYER, Window
from .workloads import RunState, percentile

# name -> unit, in report order.  `better` is what a reader should hope
# for; none of these is gated.
PER_LAYER: Dict[str, tuple] = {
    "sim.kernel.events_per_op": ("count", "lower"),
    "sim.kernel.timeouts_per_op": ("count", "lower"),
    "sim.kernel.processes_per_op": ("count", "lower"),
    "sim.kernel.host_self_share": ("fraction", "lower"),
    "sim.resources.cpu_requests_queued_per_op": ("count", "lower"),
    "cluster.client.host_self_share": ("fraction", "lower"),
    "cluster.network.rpcs_per_op": ("count", "lower"),
    "cluster.network.messages_dropped": ("count", "lower"),
    "cluster.network.rpc_sim_ms_p50": ("ms", "lower"),
    "cluster.network.host_self_share": ("fraction", "lower"),
    "cluster.coordinator.quorum_rounds_per_op": ("count", "lower"),
    "cluster.coordinator.scatter_calls_per_op": ("count", "lower"),
    "cluster.coordinator.host_self_share": ("fraction", "lower"),
    "cluster.node.dispatches_per_op": ("count", "lower"),
    "cluster.node.cpu_util": ("fraction", "lower"),
    "cluster.node.service_sim_ms_p99": ("ms", "lower"),
    "cluster.node.host_self_share": ("fraction", "lower"),
    "cluster.storage.applies_per_op": ("count", "lower"),
    "cluster.storage.reads_per_op": ("count", "lower"),
    "cluster.storage.host_self_share": ("fraction", "lower"),
    "common.records.merges_per_op": ("count", "lower"),
    "common.records.row_applies_per_op": ("count", "lower"),
    "views.manager.base_puts_per_op": ("count", "lower"),
    "views.manager.view_gets_per_op": ("count", "lower"),
    "views.manager.host_self_share": ("fraction", "lower"),
    "views.outbox.appended_per_op": ("count", "lower"),
    "views.outbox.coalesce_ratio": ("fraction", "higher"),
    "views.outbox.batch_mean": ("count", "higher"),
    "views.outbox.record_lag_sim_ms_p50": ("ms", "lower"),
    "views.outbox.record_lag_sim_ms_p99": ("ms", "lower"),
    "views.outbox.backpressure_waits_per_op": ("count", "lower"),
    "views.outbox.host_self_share": ("fraction", "lower"),
    "views.maintenance.propagations_per_op": ("count", "lower"),
    "views.maintenance.hops_per_propagation": ("count", "lower"),
    "views.maintenance.rounds_per_propagation": ("count", "lower"),
    "views.maintenance.abandoned": ("count", "lower"),
    "views.maintenance.propagation_sim_ms_p99": ("ms", "lower"),
    "views.maintenance.host_self_share": ("fraction", "lower"),
    "views.locks.acquisitions_per_op": ("count", "lower"),
    "views.locks.contention_ratio": ("fraction", "lower"),
    "views.locks.wait_sim_ms_mean": ("ms", "lower"),
    "views.locks.max_queue_depth": ("count", "lower"),
    "views.locks.host_self_share": ("fraction", "lower"),
    "views.read.rows_examined_per_result": ("count", "lower"),
    "views.read.init_spins": ("count", "lower"),
    "views.read.host_self_share": ("fraction", "lower"),
    "views.session.barriers_per_op": ("count", "lower"),
    "views.session.barrier_wait_sim_ms_p50": ("ms", "lower"),
    "views.session.barrier_wait_sim_ms_p99": ("ms", "lower"),
    "views.session.host_self_share": ("fraction", "lower"),
    "views.skew.folded": ("count", "higher"),
    "views.skew.heavy_keys": ("count", "higher"),
    "views.skew.cache_hit_ratio": ("fraction", "higher"),
    "freshness.certificates_per_op": ("count", "lower"),
    "freshness.sources_per_certificate": ("count", "lower"),
    "freshness.escalation_ratio": ("fraction", "lower"),
    "freshness.compensated_keys_per_escalation": ("count", "lower"),
    "freshness.open_wounds_end": ("count", "lower"),
    "freshness.host_self_share": ("fraction", "lower"),
    "client.read_sim_ms_p50": ("ms", "lower"),
    "client.read_sim_ms_p95": ("ms", "lower"),
    "client.write_sim_ms_p50": ("ms", "lower"),
    "client.write_sim_ms_p95": ("ms", "lower"),
    "client.fresh_read_sim_ms_p50": ("ms", "lower"),
    "client.fresh_read_sim_ms_p95": ("ms", "lower"),
    "client.visibility_lag_sim_ms_p50": ("ms", "lower"),
    "client.visibility_lag_sim_ms_p90": ("ms", "lower"),
    "host.raw_wall_s": ("s", "lower"),
    "host.raw_ops_per_s": ("1/s", "higher"),
    "host.ref_loop_s_median": ("s", "lower"),
    "host.speed_factor_min": ("ratio", "lower"),
    "host.speed_factor_max": ("ratio", "lower"),
    "bench.generator_host_share": ("fraction", "lower"),
    "bench.probe_late_ms_max": ("ms", "lower"),
    "bench.trace_overhead_ratio": ("ratio", "lower"),
}


def is_host_clock(name: str) -> bool:
    """True for per-layer metrics read off the host clock; every other
    one is a function of the seed and must repeat exactly."""
    return (name.startswith("host.") or name.endswith("host_self_share")
            or name in ("bench.generator_host_share",
                        "bench.trace_overhead_ratio"))


# Counters that are levels, not running totals: report the end value.
_GAUGES = ("locks.max_queue_depth", "freshness.open_wounds",
           "skew.heavy_keys")


def _dig(obj: Any, *path: str) -> Any:
    """Follow attributes / dict keys / zero-argument methods; None as
    soon as a step is missing."""
    for step in path:
        if obj is None:
            return None
        if isinstance(obj, dict):
            obj = obj.get(step)
            continue
        obj = getattr(obj, step, None)
        if callable(obj):
            obj = obj()
    return obj


def read_counters(cluster) -> Dict[str, Optional[float]]:
    """The system's own observability counters, flattened.  With no view
    manager installed every ``views``/``freshness`` counter is 0."""
    manager = getattr(cluster, "view_manager", None)
    counters: Dict[str, Optional[float]] = {
        "network.messages_dropped": _dig(cluster, "network",
                                         "messages_dropped"),
    }
    try:
        counters["node.busy_ms"] = sum(n.busy_time for n in cluster.nodes)
        counters["node.cores"] = (len(cluster.nodes)
                                  * cluster.config.cores_per_node)
    except AttributeError:
        counters["node.busy_ms"] = counters["node.cores"] = None
    views = {
        "outbox.appended": ("outbox_stats", "appended"),
        "outbox.coalesced": ("outbox_stats", "coalesced"),
        "maintenance.succeeded": ("maintainer", "metrics",
                                  "propagations_succeeded"),
        "maintenance.chain_hops": ("maintainer", "metrics", "chain_hops"),
        "maintenance.retry_rounds": ("maintainer", "metrics",
                                     "retry_rounds"),
        "maintenance.abandoned": ("abandoned_propagations",),
        "locks.acquisitions": ("locks", "stats", "acquisitions"),
        "locks.contentions": ("locks", "stats", "contentions"),
        "locks.wait_ms": ("locks", "stats", "wait_time_total"),
        "locks.max_queue_depth": ("locks", "stats", "max_queue_depth"),
        "read.init_spins": ("read_stats", "init_spins"),
        "skew.folded": ("skew_stats", "folded_records"),
        "skew.heavy_keys": ("skew_stats", "heavy_keys"),
        "skew.cache_hits": ("skew_stats", "cache", "hits"),
        "skew.cache_misses": ("skew_stats", "cache", "misses"),
        "freshness.reads_bounded": ("freshness_stats", "slo",
                                    "reads_bounded"),
        "freshness.escalations": ("freshness_stats", "slo", "escalations"),
        "freshness.compensated_keys": ("freshness_stats", "slo",
                                       "compensated_keys"),
        "freshness.open_wounds": ("freshness_stats", "open_wounds"),
    }
    for key, path in views.items():
        counters[key] = 0 if manager is None else _dig(manager, *path)
    return counters


def _delta(before: Dict, after: Dict) -> Dict[str, Optional[float]]:
    out: Dict[str, Optional[float]] = {}
    for key, end in after.items():
        start = before.get(key)
        if key in _GAUGES or key == "node.cores":
            out[key] = end
        elif end is None or start is None:
            out[key] = None
        else:
            out[key] = end - start
    return out


def _ratio(top: Optional[float], bottom: Optional[float]
           ) -> Optional[float]:
    """top/bottom; 0 when nothing happened; None when unknown."""
    if top is None or bottom is None:
        return None
    return top / bottom if bottom else 0.0


def _pct(samples: List[float], q: float) -> Optional[float]:
    return percentile(samples, q) if samples else None


def layer_metrics(window: Window, state: RunState, before: Dict,
                  after: Dict, *, traced_wall_s: float,
                  sim_elapsed_ms: float) -> Dict[str, Optional[float]]:
    """Every tracer- and counter-derived entry of :data:`PER_LAYER`
    (the runner adds ``host.*``, ``client.*`` and the overhead ratio)."""
    ops = state.completed
    sys_counts = _delta(before, after)

    def calls(*targets: str) -> Optional[int]:
        total = 0
        for dotted in targets:
            n = window.calls(f"repro.{dotted}")
            if n is None:
                return None
            total += n
        return total

    def per_op(n: Optional[float]) -> Optional[float]:
        return None if n is None else n / ops

    def extra(name: str, needs: str) -> Optional[int]:
        """A hook-maintained count, None if its wrap target is gone."""
        if f"repro.{needs}" in window.tracer.missing:
            return None
        return window.counts.get(name, 0)

    def sim_pct(dotted: str, q: float) -> Optional[float]:
        return _pct(window.sim_durations(f"repro.{dotted}"), q)

    layer_self = dict(window.layer_self_s)
    wrapped = sum(layer_self.values())
    layer_self[KERNEL_LAYER] = (layer_self.get(KERNEL_LAYER, 0.0)
                                + traced_wall_s - wrapped)

    def share(layer: str) -> float:
        return layer_self.get(layer, 0.0) / traced_wall_s

    events = window.events
    coordinator = "cluster.coordinator.Coordinator."
    engine = "cluster.storage.LocalStorageEngine."
    propagations = calls(
        "views.maintenance.ViewMaintainer.propagate_update")
    certificates = calls("freshness.certificate.FreshnessTracker.certificate")
    escalations = sys_counts["freshness.escalations"]
    cache_lookups = _sum(sys_counts["skew.cache_hits"],
                         sys_counts["skew.cache_misses"])
    return {
        "sim.kernel.events_per_op": per_op(sum(events.values())),
        "sim.kernel.timeouts_per_op": per_op(events.get("Timeout", 0)),
        "sim.kernel.processes_per_op": per_op(
            calls("sim.kernel.Environment.process")),
        "sim.kernel.host_self_share": share(KERNEL_LAYER),
        "sim.resources.cpu_requests_queued_per_op": per_op(
            calls("sim.resources.Resource.request")),
        "cluster.client.host_self_share": share("cluster.client"),
        "cluster.network.rpcs_per_op": per_op(
            calls("cluster.network.Network.rpc")),
        "cluster.network.messages_dropped":
            sys_counts["network.messages_dropped"],
        "cluster.network.rpc_sim_ms_p50": sim_pct(
            "cluster.network.Network.rpc", 50),
        "cluster.network.host_self_share": share("cluster.network"),
        "cluster.coordinator.quorum_rounds_per_op": per_op(
            calls("cluster.coordinator.ResponseCollector.wait")),
        "cluster.coordinator.scatter_calls_per_op": per_op(calls(
            coordinator + "scatter_write", coordinator + "scatter_read",
            coordinator + "scatter_read_row",
            coordinator + "scatter_get_then_put")),
        "cluster.coordinator.host_self_share": share("cluster.coordinator"),
        "cluster.node.dispatches_per_op": per_op(
            calls("cluster.node.StorageNode.dispatch")),
        "cluster.node.cpu_util": _ratio(
            sys_counts["node.busy_ms"],
            None if sys_counts["node.cores"] is None
            else sys_counts["node.cores"] * sim_elapsed_ms),
        "cluster.node.service_sim_ms_p99": sim_pct(
            "cluster.node.StorageNode.dispatch", 99),
        "cluster.node.host_self_share": share("cluster.node"),
        "cluster.storage.applies_per_op": per_op(calls(engine + "apply")),
        "cluster.storage.reads_per_op": per_op(
            calls(engine + "read", engine + "read_row")),
        "cluster.storage.host_self_share": share("cluster.storage"),
        "common.records.merges_per_op": per_op(
            calls("common.records.merge_cells")),
        "common.records.row_applies_per_op": per_op(
            calls("common.records.Row.apply")),
        "views.manager.base_puts_per_op": per_op(
            calls("views.manager.ViewManager.base_put")),
        "views.manager.view_gets_per_op": per_op(calls(
            "views.manager.ViewManager.view_get",
            "views.manager.ViewManager.view_get_fresh")),
        "views.manager.host_self_share": share("views.manager"),
        "views.outbox.appended_per_op": per_op(
            sys_counts["outbox.appended"]),
        "views.outbox.coalesce_ratio": _ratio(
            sys_counts["outbox.coalesced"], sys_counts["outbox.appended"]),
        "views.outbox.batch_mean": _ratio(
            extra("outbox_batch_records", "views.outbox.NodeOutbox.next_batch"),
            extra("outbox_batches", "views.outbox.NodeOutbox.next_batch")),
        "views.outbox.record_lag_sim_ms_p50": _pct(window.record_lags, 50),
        "views.outbox.record_lag_sim_ms_p99": _pct(window.record_lags, 99),
        "views.outbox.backpressure_waits_per_op": per_op(
            extra("semaphore_waits", "sim.resources.Semaphore.acquire")),
        "views.outbox.host_self_share": share("views.outbox"),
        "views.maintenance.propagations_per_op": per_op(propagations),
        "views.maintenance.hops_per_propagation": _ratio(
            sys_counts["maintenance.chain_hops"],
            sys_counts["maintenance.succeeded"]),
        "views.maintenance.rounds_per_propagation": _ratio(
            _sum(sys_counts["maintenance.retry_rounds"],
                 sys_counts["maintenance.succeeded"]),
            sys_counts["maintenance.succeeded"]),
        "views.maintenance.abandoned": sys_counts["maintenance.abandoned"],
        "views.maintenance.propagation_sim_ms_p99": sim_pct(
            "views.maintenance.ViewMaintainer.propagate_update", 99),
        "views.maintenance.host_self_share": share("views.maintenance"),
        "views.locks.acquisitions_per_op": per_op(
            sys_counts["locks.acquisitions"]),
        "views.locks.contention_ratio": _ratio(
            sys_counts["locks.contentions"],
            sys_counts["locks.acquisitions"]),
        "views.locks.wait_sim_ms_mean": _ratio(
            sys_counts["locks.wait_ms"], sys_counts["locks.contentions"]),
        "views.locks.max_queue_depth": sys_counts["locks.max_queue_depth"],
        "views.locks.host_self_share": share("views.locks"),
        "views.read.rows_examined_per_result": _ratio(
            extra("rows_examined", "views.versioned.split_wide_row"),
            extra("view_read_results", "views.read.view_get")),
        "views.read.init_spins": sys_counts["read.init_spins"],
        "views.read.host_self_share": share("views.read"),
        "views.session.barriers_per_op": per_op(
            calls("views.session.SessionManager.barrier")),
        "views.session.barrier_wait_sim_ms_p50": sim_pct(
            "views.session.SessionManager.barrier", 50),
        "views.session.barrier_wait_sim_ms_p99": sim_pct(
            "views.session.SessionManager.barrier", 99),
        "views.session.host_self_share": share("views.session"),
        "views.skew.folded": sys_counts["skew.folded"],
        "views.skew.heavy_keys": sys_counts["skew.heavy_keys"],
        "views.skew.cache_hit_ratio": _ratio(
            sys_counts["skew.cache_hits"], cache_lookups),
        "freshness.certificates_per_op": per_op(certificates),
        "freshness.sources_per_certificate": _ratio(
            extra("sources_listed",
                  "freshness.certificate.FreshnessTracker.sources"),
            calls("freshness.certificate.FreshnessTracker.sources")),
        "freshness.escalation_ratio": _ratio(
            escalations, sys_counts["freshness.reads_bounded"]),
        "freshness.compensated_keys_per_escalation": _ratio(
            sys_counts["freshness.compensated_keys"], escalations),
        "freshness.open_wounds_end": sys_counts["freshness.open_wounds"],
        "freshness.host_self_share": share("freshness"),
        "bench.generator_host_share": share(BENCH_LAYER),
    }


def _sum(a: Optional[float], b: Optional[float]) -> Optional[float]:
    return None if a is None or b is None else a + b


def client_layer(samples: Dict[str, List[float]]
                 ) -> Dict[str, Optional[float]]:
    """The ``client.*`` rows: typed latencies at the traced run's size,
    at percentiles its smaller samples can carry."""
    return {
        "client.read_sim_ms_p50": _pct(samples["read"], 50),
        "client.read_sim_ms_p95": _pct(samples["read"], 95),
        "client.write_sim_ms_p50": _pct(samples["write"], 50),
        "client.write_sim_ms_p95": _pct(samples["write"], 95),
        "client.fresh_read_sim_ms_p50": _pct(samples["fresh"], 50),
        "client.fresh_read_sim_ms_p95": _pct(samples["fresh"], 95),
        "client.visibility_lag_sim_ms_p50": _pct(samples["lag"], 50),
        "client.visibility_lag_sim_ms_p90": _pct(samples["lag"], 90),
    }
