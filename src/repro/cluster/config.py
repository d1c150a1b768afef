"""Cluster configuration: topology, service times, and network models.

All durations are milliseconds of simulated time.  The defaults are
calibrated so a 4-node cluster behaves like the paper's testbed class
(dual-core servers on a 1 Gb LAN): sub-millisecond single-record
operations, and saturation around the throughput the paper reports.
``repro.experiments.calibration`` documents the parameters used for each
figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.sim.latency import LatencyModel, ShiftedExponential

__all__ = ["ServiceTimes", "ClusterConfig"]


@dataclass(frozen=True)
class ServiceTimes:
    """Per-operation CPU service times charged to a node's cores (ms).

    ``read``/``write`` are the local storage-engine costs paid by each
    replica; ``index_scan`` is one node's share of a scatter-gather
    secondary-index lookup; ``index_update`` is the extra cost a replica
    pays to keep its local index fragment synchronous with a write;
    ``coordinator`` is the request-handling overhead at the coordinating
    node (parsing, routing, merging responses); ``per_cell`` scales costs
    with the number of cells touched; ``write_background`` is deferred
    per-replica write work (commit-log flushing, memtable/compaction
    overhead) that happens off the acknowledgement path but still
    consumes CPU capacity — it is what makes write throughput saturate
    without inflating single-request write latency.
    """

    read: float = 0.30
    write: float = 0.025
    index_scan: float = 1.90
    index_update: float = 0.03
    coordinator: float = 0.08
    per_cell: float = 0.008
    write_background: float = 0.15

    def __post_init__(self):
        for name in ("read", "write", "index_scan", "index_update",
                     "coordinator", "per_cell", "write_background"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def read_cost(self, cells: int) -> float:
        """CPU time for a local read touching ``cells`` cells."""
        return self.read + self.per_cell * cells

    def write_cost(self, cells: int) -> float:
        """CPU time for a local write touching ``cells`` cells."""
        return self.write + self.per_cell * cells


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to build a simulated cluster.

    Defaults mirror the paper's testbed: 4 nodes, dual-core CPUs,
    replication factor 3, 1 Gb LAN latencies.
    """

    nodes: int = 4
    replication_factor: int = 3
    cores_per_node: int = 2
    service: ServiceTimes = field(default_factory=ServiceTimes)

    # One-way network delays.  Client machines sit one switch away from the
    # cluster; inter-node links are the same class.
    client_link: LatencyModel = field(
        default_factory=lambda: ShiftedExponential(base=0.045, jitter_mean=0.02))
    replica_link: LatencyModel = field(
        default_factory=lambda: ShiftedExponential(base=0.06, jitter_mean=0.02))

    # View maintenance knobs (consumed by repro.views).
    # Each committed Put is appended to its coordinator node's update
    # log (repro.views.outbox), which runs one propagation per record.
    # Maximum records a node may hold, waiting or running; base-table
    # Puts block once the backlog is full.
    max_pending_propagations: int = 32
    # Extra scheduling delay before an asynchronous propagation begins
    # (models queueing behind other maintenance work; heavy-tailed).
    propagation_delay: LatencyModel = field(
        default_factory=lambda: ShiftedExponential(base=0.05, jitter_mean=0.05))
    # Combine the view-key Get with the base Put in a single replica round
    # trip (the optimization the paper describes but its prototype omits).
    combined_get_then_put: bool = False
    # Concurrency control for update propagation (Section IV-F): "locks"
    # (per-base-row lock service) or "propagators" (dedicated propagators
    # via consistent hashing).
    propagation_concurrency: str = "locks"

    # Skew-adaptive maintenance (repro.views.skew).  When enabled,
    # per-node decayed update counters classify (view, base key) chains
    # heavy/light, and a heavy chain's outbox records fold into one
    # survivor that re-drives the row's current state after a short
    # window.  The thresholds, half-life and window are constants of
    # ``repro.views.skew``.
    skew_adaptive: bool = False

    # Root seed for all RNG streams.
    seed: int = 0

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if not 1 <= self.replication_factor <= self.nodes:
            raise ValueError(
                f"replication_factor must be in [1, {self.nodes}], "
                f"got {self.replication_factor}")
        if self.cores_per_node < 1:
            raise ValueError("cores_per_node must be >= 1")
        if self.max_pending_propagations < 1:
            raise ValueError("max_pending_propagations must be >= 1")
        if self.propagation_concurrency not in ("locks", "propagators"):
            raise ValueError(
                "propagation_concurrency must be 'locks' or 'propagators', "
                f"got {self.propagation_concurrency!r}")

    def with_overrides(self, **kwargs) -> "ClusterConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **kwargs)
