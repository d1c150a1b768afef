"""Materialized views for eventually consistent record stores.

The paper's contribution: view definitions, versioned view rows,
decentralized asynchronous incremental maintenance (Algorithms 1-3),
stale-row-filtering reads (Algorithm 4), concurrency control (locks or
dedicated propagators), and session guarantees.
"""

from repro.views.definition import (
    BASE_KEY_COLUMN,
    NEXT_COLUMN,
    ViewDefinition,
)
from repro.views.gc import GCReport, StaleRowCollector, collect_stale_rows
from repro.views.joins import JoinResult, JoinSide, JoinViewDefinition
from repro.views.master import MasterBasedViews
from repro.views.invariants import (
    check_view,
    collect_entries,
    live_entries,
    live_state_digest,
    merged_view_state,
    state_digest,
)
from repro.views.locks import LockService
from repro.views.maintenance import PropagationMetrics, ViewKeyGuess, ViewMaintainer
from repro.views.manager import ViewManager
from repro.views.outbox import NodeOutbox, OutboxRecord
from repro.views.model import (
    BaseUpdate,
    LogicalBaseTable,
    ReferenceViewModel,
    expected_view_rows,
)
from repro.views.read import ViewResult, view_get
from repro.views.session import Session, SessionManager
from repro.views.skew import SkewService, UpdateFrequencyTracker
from repro.views.stats import ViewStats, compute_stats
from repro.views.versioned import (
    NULL_VIEW_KEY,
    VersionedEntry,
    base_timestamp_of,
    split_wide_row,
    view_column,
    view_timestamp,
)

__all__ = [
    "ViewDefinition",
    "BASE_KEY_COLUMN",
    "NEXT_COLUMN",
    "NULL_VIEW_KEY",
    "ViewManager",
    "ViewMaintainer",
    "ViewKeyGuess",
    "PropagationMetrics",
    "ViewResult",
    "view_get",
    "LockService",
    "NodeOutbox",
    "OutboxRecord",
    "Session",
    "SessionManager",
    "BaseUpdate",
    "LogicalBaseTable",
    "ReferenceViewModel",
    "expected_view_rows",
    "VersionedEntry",
    "split_wide_row",
    "view_column",
    "view_timestamp",
    "base_timestamp_of",
    "check_view",
    "collect_entries",
    "live_entries",
    "merged_view_state",
    "state_digest",
    "live_state_digest",
    "GCReport",
    "StaleRowCollector",
    "collect_stale_rows",
    "JoinSide",
    "JoinViewDefinition",
    "JoinResult",
    "MasterBasedViews",
    "ViewStats",
    "compute_stats",
    "SkewService",
    "UpdateFrequencyTracker",
]
