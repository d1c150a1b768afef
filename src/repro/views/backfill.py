"""Initial load of a view defined over a populated base table."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Tuple

from repro.errors import QuorumError
from repro.views.drive import repropagate_row

__all__ = ["BackfillReport", "backfill"]


@dataclass
class BackfillReport:
    """Outcome of :func:`backfill` (``ViewManager.backfill``).

    ``skipped`` lists base keys that could not be loaded because no
    replica of the row was reachable (all down, or quorum reads timed
    out) — callers re-run backfill for them, or leave them to the
    background scrubber (:mod:`repro.repair`).
    """

    loaded: int = 0
    batches: int = 0
    skipped: Tuple[Hashable, ...] = ()


def backfill(manager, view_name: str, coordinator_id: int = 0,
             batch_size: int = 64, batch_pause: float = 0.0):
    """Build a view's contents from existing base rows; a process.

    Registering a view over a populated base table requires an
    initial load (the paper assumes views start correctly
    initialized).  Each base row's current view-key and materialized
    cells are propagated through the normal maintenance machinery
    (:func:`~repro.views.drive.repropagate_row` — backfill is a
    repair of every row against an empty view), so the resulting
    versioned view is exactly what incremental maintenance would
    have produced.

    The scan is incremental: rows are loaded in ``batch_size``
    batches with a ``batch_pause`` yield between them, so concurrent
    traffic interleaves instead of stalling behind one monolithic
    scan.  Returns a :class:`BackfillReport`; keys whose replicas
    were all unreachable are reported in ``skipped`` rather than
    silently dropped.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if batch_pause < 0:
        raise ValueError("batch_pause must be non-negative")
    view = manager.view(view_name)
    coordinator = manager.cluster.coordinator(coordinator_id)
    ordered = sorted(manager.cluster.table_keys(view.base_table), key=repr)
    report = BackfillReport()
    skipped: List[Hashable] = []
    full = min(manager.config.replication_factor, manager.config.nodes)
    for start in range(0, len(ordered), batch_size):
        if start:
            # Yield between batches: lets queued traffic run even at
            # a zero pause (same-instant events fire FIFO).
            yield manager.env.timeout(batch_pause)
        report.batches += 1
        for key in ordered[start:start + batch_size]:
            replicas = manager.cluster.replicas_for(view.base_table, key)
            alive = sum(1 for replica in replicas if not replica.is_down)
            if alive == 0:
                skipped.append(key)
                continue
            try:
                # Read every reachable replica: backfill wants the
                # freshest base state it can see.
                loaded = yield from repropagate_row(
                    manager, coordinator, view, key, r=min(full, alive))
            except QuorumError:
                skipped.append(key)
                continue
            if loaded:
                report.loaded += 1
    report.skipped = tuple(skipped)
    manager.cluster.trace("backfill", "completed", view=view_name,
                          loaded=report.loaded, batches=report.batches,
                          skipped=len(report.skipped))
    return report
