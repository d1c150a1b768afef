"""Stale-row garbage collection (an extension beyond the paper).

The paper's versioned views never discard stale rows, which is why its
conclusion recommends the technique for "views for which the underlying
base data (especially the view keys) are updated infrequently": every
view-key update leaves a stale row behind, forever.  This module adds
the natural production extension — a background collector that, for
each base row, only **prunes**: a stale row older than a safety
horizon that no other row points at has its ``Next`` pointer
tombstoned, which removes the row from the versioned view (its
leftover materialized cells stay; see the inline comment in the sweep).
Every pointer J -> K has ``ts(J.Next) <= ts(K.Next)``, so an old row is
pinned only by older rows: pruning cascades from the oldest, one layer
per sweep, to a fixpoint.  The anchor, never pruned, is repointed at
the live row when old by :meth:`ViewMaintainer.compact_anchor`, the
maintainer's write a serialized walk from the anchor also ends with.

Safety
------

A stale row may still be needed as the chain entry point for an
in-flight propagation whose view-key *guess* is that row's key.  Guesses
are collected from base-row replicas when the update is issued, and
propagation (including retries) completes within a bounded time, so
rows older than a generous ``horizon`` are safe to touch.  Even if a
straggler guess does hit a pruned row, the coordinator merely retries
and refreshes its guesses from the base replicas (Algorithm 1's loop),
so correctness never depends on the horizon — only retry effort does.

Two rows are exempt: live rows, and the NULL-anchor entry (it is the
entry point for NULL guesses; pruning it could let a pristine-NULL
guess from a badly lagging replica anchor a second chain).

Prune tombstones use a dedicated timestamp phase (``PHASE_PRUNE``,
above every other phase, below any later update), so collection is
idempotent, replicas converge under plain LWW, and a reused view key
always supersedes the GC tombstones.

Collection serializes with update propagation through
:meth:`ViewManager.serialized` (the base row's lock, or its dedicated
propagator), like every propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List

from repro.common.records import Cell
from repro.views.definition import NEXT_COLUMN, ViewDefinition
from repro.views.invariants import collect_entries, entries_for_base_key
from repro.views.versioned import (
    NULL_VIEW_KEY,
    PHASE_PRUNE,
    view_column,
    view_timestamp,
)

__all__ = ["GCReport", "collect_stale_rows", "StaleRowCollector"]


@dataclass
class GCReport:
    """Outcome of one collection pass over a view.  ``rows_compacted``
    counts NULL-anchor repoints, the only rows GC repoints."""

    base_rows_examined: int = 0
    rows_compacted: int = 0
    rows_pruned: int = 0
    skipped_recent: int = 0
    skipped_pinned: int = 0  # old rows still pointed at by another row

    def merge(self, other: "GCReport") -> None:
        """Accumulate another report into this one."""
        self.base_rows_examined += other.base_rows_examined
        self.rows_compacted += other.rows_compacted
        self.rows_pruned += other.rows_pruned
        self.skipped_recent += other.skipped_recent
        self.skipped_pinned += other.skipped_pinned


def collect_stale_rows(cluster, view: ViewDefinition, cutoff_base_ts: int,
                       coordinator_id: int = 0):
    """One collection pass over ``view``: a generator, run as a process
    or with ``yield from`` in the caller's own (``StaleRowCollector``).

    Stale rows whose pointer timestamp is **older than**
    ``cutoff_base_ts`` are pruned (the NULL anchor repointed).  Returns
    a :class:`GCReport`.
    """
    manager = cluster.view_manager
    if manager is None or not manager.is_view(view.name):
        raise ValueError(f"{view.name!r} is not a registered view")
    return _collect_all(cluster, view, cutoff_base_ts, coordinator_id)


def _collect_all(cluster, view: ViewDefinition, cutoff_base_ts: int,
                 coordinator_id: int):
    report = GCReport()
    per_base = collect_entries(cluster, view)
    for base_key in sorted(per_base, key=repr):
        # GC never creates rows, so this base row's chain stays within
        # the view-row keys observed here; sweeps re-read only those.
        view_keys = tuple(per_base[base_key])
        row_report = yield from _collect_base_row(
            cluster, view, base_key, view_keys, cutoff_base_ts,
            coordinator_id)
        report.merge(row_report)
    return report


def _collect_base_row(cluster, view: ViewDefinition, base_key: Hashable,
                      view_keys, cutoff_base_ts: int, coordinator_id: int):
    """Collect one base row's chain, serialized against propagation."""
    def job(coordinator, _turn):
        return _collect_under_serialization(
            cluster, view, base_key, view_keys, cutoff_base_ts,
            coordinator.node.node_id)

    return cluster.view_manager.serialized(
        cluster.coordinator(coordinator_id), view, base_key, job)


def _collect_under_serialization(cluster, view: ViewDefinition,
                                 base_key: Hashable, view_keys,
                                 cutoff_base_ts: int, coordinator_id: int):
    """Sweep one base row's chain to a fixpoint.

    Each sweep prunes the old rows nothing points at (and repoints an
    old anchor), unpinning the rows they pointed at for the next sweep.
    Loops until a sweep changes nothing.
    """
    report = GCReport(base_rows_examined=1)
    previous = None
    while True:
        delta = yield from _sweep_base_row(cluster, view, base_key,
                                           view_keys, cutoff_base_ts,
                                           coordinator_id)
        changed = delta.rows_compacted + delta.rows_pruned
        report.rows_compacted += delta.rows_compacted
        report.rows_pruned += delta.rows_pruned
        # Skip counters reflect the final sweep only (stable state).
        report.skipped_recent = delta.skipped_recent
        report.skipped_pinned = delta.skipped_pinned
        if changed == 0:
            return report
        # Termination guard: a sweep's puts can lose under LWW to cells
        # written at an equal-or-newer timestamp, in which case the
        # counters above claim progress the store never made.  Stop once
        # the observable chain state repeats instead of re-issuing the
        # same doomed writes forever.
        snapshot = tuple(sorted(
            ((repr(vk), entry.next_cell.value, entry.next_cell.timestamp)
             for vk, entry in entries_for_base_key(
                 cluster, view, view_keys, base_key).items()),
        ))
        if snapshot == previous:
            return report
        previous = snapshot


def _sweep_base_row(cluster, view: ViewDefinition, base_key: Hashable,
                    view_keys, cutoff_base_ts: int, coordinator_id: int):
    coordinator = cluster.coordinator(coordinator_id)
    maintainer = cluster.view_manager.maintainer
    report = GCReport()
    entries = entries_for_base_key(cluster, view, view_keys, base_key)
    live_keys = [vk for vk, entry in entries.items() if entry.is_live]
    if len(live_keys) != 1:
        # Mid-flight or broken state: leave it for the next pass.
        return report
    live_key = live_keys[0]
    pinned = {entry.next_key for entry in entries.values()
              if not entry.is_live}

    for view_key, entry in sorted(entries.items(), key=lambda kv: repr(kv[0])):
        if entry.is_live:
            continue
        if view_key == NULL_VIEW_KEY:
            # Never pruned: repointed, so the chain behind it unpins.
            if entry.next_key != live_key and entry.base_ts < cutoff_base_ts:
                yield from maintainer.compact_anchor(
                    coordinator, view, base_key, entry.base_ts, live_key,
                    entries[live_key].base_ts)
                report.rows_compacted += 1
            continue
        if entry.base_ts >= cutoff_base_ts:
            report.skipped_recent += 1
            continue
        if view_key in pinned:
            # Another row still points here: the older pointer sources
            # go first, and a later sweep prunes this one.
            report.skipped_pinned += 1
            continue
        # Old, unreferenced stale row: tombstone its pointer, which is
        # what deletes the *row* (without a pointer it is no longer part
        # of the versioned view).  Leftover materialized cells from when
        # the row was live are deliberately NOT tombstoned: CopyData
        # copies cells verbatim (value and timestamp) when a key is
        # reused, and a prune tombstone at the same base timestamp would
        # permanently shadow the re-copied value.  The leftovers are
        # invisible to readers and are simply overwritten if the key
        # returns.
        yield from coordinator.put(view.name, view_key, {
            view_column(base_key, NEXT_COLUMN): Cell.make(
                None, view_timestamp(entry.base_ts, PHASE_PRUNE)),
        }, maintainer.quorum)
        report.rows_pruned += 1
    return report


class StaleRowCollector:
    """Periodic background collection over a set of views.

    ``horizon_ms`` is the safety window: only stale rows whose pointer
    was last written more than that long ago (in simulated time) are
    touched.  The horizon is converted to timestamp space using the
    client oracle's clock mapping, so it only applies to oracle-issued
    timestamps (the normal case); explicitly supplied timestamps should
    use :func:`collect_stale_rows` with an explicit cutoff.
    """

    def __init__(self, cluster, view_names: List[str], interval: float,
                 horizon_ms: float):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if horizon_ms < 0:
            raise ValueError("horizon_ms must be non-negative")
        self.cluster = cluster
        self.view_names = list(view_names)
        self.interval = interval
        self.horizon_ms = horizon_ms
        self.passes = 0
        self.total = GCReport()
        self._stopped = False
        self._process = cluster.env.process(self._loop(), name="view-gc")

    def stop(self) -> None:
        """Stop after the current pass."""
        self._stopped = True

    def _cutoff(self) -> int:
        from repro.common.timestamps import _CLIENT_BITS

        horizon_start = max(0.0, self.cluster.env.now - self.horizon_ms)
        return int(horizon_start * 1000.0) << _CLIENT_BITS

    def _loop(self):
        while not self._stopped:
            yield self.cluster.env.timeout(self.interval)
            if self._stopped:
                return
            for name in self.view_names:
                view = self.cluster.view_manager.view(name)
                report = yield from collect_stale_rows(
                    self.cluster, view, self._cutoff())
                self.total.merge(report)
            self.passes += 1
