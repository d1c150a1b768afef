"""Multi-master, eventually consistent record store (simulated cluster)."""

from repro.cluster.client import ClientHandle, SyncClient
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig, ServiceTimes
from repro.cluster.coordinator import (
    Coordinator,
    QuorumDeadlines,
    ResponseCollector,
)
from repro.cluster.metrics import (
    ClusterSnapshot,
    NodeSnapshot,
    UtilizationTracker,
)
from repro.cluster.network import Network
from repro.cluster.node import StorageNode
from repro.cluster.storage import LocalStorageEngine

__all__ = [
    "Cluster",
    "ClusterConfig",
    "ServiceTimes",
    "ClientHandle",
    "SyncClient",
    "Coordinator",
    "QuorumDeadlines",
    "ResponseCollector",
    "Network",
    "StorageNode",
    "LocalStorageEngine",
    "ClusterSnapshot",
    "NodeSnapshot",
    "UtilizationTracker",
]
