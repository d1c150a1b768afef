"""Cluster observability: utilization and activity snapshots.

Operator-level introspection over a running (or finished) simulation:
per-node CPU utilization over a window, message traffic, request counts,
and view-maintenance activity.  The experiments use these to explain
*why* a curve saturates (e.g. Figure 6's MV line flattens when the
cluster's cores are fully occupied by propagation work).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["NodeSnapshot", "ClusterSnapshot", "UtilizationTracker"]


@dataclass(frozen=True)
class NodeSnapshot:
    """One node's counters at a point in simulated time."""

    node_id: int
    busy_time: float
    requests_handled: int
    is_down: bool


@dataclass(frozen=True)
class ClusterSnapshot:
    """Cluster-wide counters at a point in simulated time."""

    at: float
    nodes: List[NodeSnapshot]
    messages_sent: int
    completed_propagations: int

    @staticmethod
    def capture(cluster) -> "ClusterSnapshot":
        """Snapshot ``cluster``'s counters now."""
        manager = cluster.view_manager
        return ClusterSnapshot(
            at=cluster.env.now,
            nodes=[NodeSnapshot(node.node_id, node.busy_time,
                                node.requests_handled, node.is_down)
                   for node in cluster.nodes],
            messages_sent=cluster.network.messages_sent,
            completed_propagations=(manager.completed_propagations
                                    if manager else 0),
        )


class UtilizationTracker:
    """Measures per-node CPU utilization between two snapshots.

    Usage::

        tracker = UtilizationTracker(cluster)
        tracker.start()
        ... run a workload ...
        report = tracker.stop()
        report.mean_utilization()   # 0.0 .. 1.0
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self._start: Optional[ClusterSnapshot] = None

    def start(self) -> None:
        """Mark the start of the measurement window."""
        self._start = ClusterSnapshot.capture(self.cluster)

    def stop(self) -> "UtilizationReport":
        """Close the window and return the report."""
        if self._start is None:
            raise RuntimeError("start() was never called")
        end = ClusterSnapshot.capture(self.cluster)
        report = UtilizationReport(self.cluster, self._start, end)
        self._start = None
        return report


@dataclass
class UtilizationReport:
    """CPU utilization per node over a window."""

    cluster: object
    begin: ClusterSnapshot
    end: ClusterSnapshot
    per_node: Dict[int, float] = field(init=False)

    def __post_init__(self):
        window = self.end.at - self.begin.at
        self.per_node = {}
        begin_busy = {snap.node_id: snap.busy_time
                      for snap in self.begin.nodes}
        for snap in self.end.nodes:
            cores = self.cluster.config.cores_per_node
            if window <= 0:
                self.per_node[snap.node_id] = 0.0
                continue
            busy = snap.busy_time - begin_busy.get(snap.node_id, 0.0)
            self.per_node[snap.node_id] = busy / (window * cores)

    @property
    def window(self) -> float:
        """Window length in simulated ms."""
        return self.end.at - self.begin.at

    def mean_utilization(self) -> float:
        """Average CPU utilization across nodes (0..1)."""
        if not self.per_node:
            return 0.0
        return sum(self.per_node.values()) / len(self.per_node)

    def max_utilization(self) -> float:
        """The busiest node's utilization (0..1)."""
        return max(self.per_node.values(), default=0.0)

    @property
    def messages(self) -> int:
        """Messages sent during the window."""
        return self.end.messages_sent - self.begin.messages_sent

    @property
    def propagations(self) -> int:
        """View propagations completed during the window."""
        return (self.end.completed_propagations
                - self.begin.completed_propagations)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (f"window {self.window:.0f} ms: cpu mean "
                f"{self.mean_utilization():.0%} / max "
                f"{self.max_utilization():.0%}, {self.messages} messages, "
                f"{self.propagations} propagations")
