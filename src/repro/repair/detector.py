"""Divergence detection between a base table and its materialized views.

Anti-entropy (``repro.cluster.antientropy``) converges replicas *of
the same table*; it never compares a base table against its views, so
a propagation lost to a coordinator crash leaves the view diverged
forever (the paper's Section VIII caveat).  This module defines what
"diverged" means and finds it cheaply:

- A base row's **canonical form** is the view-relevant state a fully
  successful propagation would leave behind: the expected live view key
  (the NULL anchor for deleted / predicate-rejected keys) at the view
  key cell's timestamp, plus each materialized cell.  The *actual*
  canonical form is derived from the view's live rows with scaled
  timestamps mapped back to base-update space, so the two sides are
  directly comparable.
- Range-level skip compares the two sides row by row, once: the hash
  buckets (:func:`~repro.repair.scanner.bucket_of`) of the keys whose
  canonical rows differ are the only ones scanned with quorum reads.
- Per-row confirmation (:func:`verify_row`) is protocol-level: a quorum
  read of the base row and a quorum read of the expected live view row
  (both charging simulated time), so transient replica skew seen by the
  introspective comparison is re-checked before any repair is issued.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.common.records import Cell, ColumnName
from repro.repair.scanner import bucket_of
from repro.views.definition import ViewDefinition
from repro.views.invariants import live_entries
from repro.views.versioned import (
    NULL_VIEW_KEY,
    VersionedEntry,
    base_timestamp_of,
    split_wide_row,
)

__all__ = [
    "Divergence",
    "canonical_base_row",
    "canonical_view_entry",
    "expected_canonical_rows",
    "actual_canonical_rows",
    "divergent_base_keys",
    "dirty_buckets",
    "verify_row",
]

# Reserved canonical column carrying the live view key; real view columns
# can never collide with it (leading NUL, like NULL_VIEW_KEY).
LIVE_MARKER = "\x00__LIVE__"
# Canonical marker for a base key with multiple live view rows — never
# equal to any expected canonical form, so the comparison always differs.
_CONFLICT_MARKER = "\x00__LIVE_CONFLICT__"


@dataclass(frozen=True)
class Divergence:
    """One confirmed base↔view disagreement for a single base row."""

    view_name: str
    base_key: Hashable
    kind: str  # "stray-live-rows" | "missing-live-row" | "content-mismatch"
    detail: str = ""
    # View keys holding unexpected live rows for this base key (set for
    # kind == "stray-live-rows"); the repairer demotes them explicitly,
    # because replaying the winning state is an LWW no-op that never
    # touches a resurrected row off the winner's chain walk.
    strays: Tuple[Any, ...] = ()


def canonical_base_row(view: ViewDefinition,
                       base_cells: Dict[ColumnName, Cell]
                       ) -> Dict[ColumnName, Cell]:
    """The live view row a successful propagation of ``base_cells``
    produces, in canonical (base-timestamp) form.

    Empty when the base row's view-key column was never written — such a
    row has no view row at all (materialized cells may be parked under
    the NULL anchor, but they are not a row until a view key arrives).
    """
    key_cell = base_cells.get(view.view_key_column) or Cell.null()
    if key_cell.timestamp < 0:
        return {}
    if not key_cell.is_null and view.accepts_key(key_cell.value):
        live_key = key_cell.value
    else:
        live_key = NULL_VIEW_KEY
    canonical = {LIVE_MARKER: Cell(live_key, key_cell.timestamp)}
    for column in view.materialized_columns:
        cell = base_cells.get(column)
        if cell is None or cell.timestamp < 0:
            continue
        canonical[column] = cell
    return canonical


def canonical_view_entry(view: ViewDefinition,
                         entry: VersionedEntry) -> Dict[ColumnName, Cell]:
    """One live view entry's canonical form (timestamps descaled)."""
    canonical = {LIVE_MARKER: Cell(entry.view_key, entry.base_ts)}
    for column in view.materialized_columns:
        cell = entry.cells.get(column)
        if cell is None or cell.timestamp < 0:
            continue
        canonical[column] = Cell(cell.value, base_timestamp_of(cell.timestamp),
                                 cell.tombstone)
    return canonical


def expected_canonical_rows(cluster, view: ViewDefinition
                            ) -> Dict[Hashable, Dict[ColumnName, Cell]]:
    """Canonical live rows implied by the (converged) base table."""
    expected: Dict[Hashable, Dict[ColumnName, Cell]] = {}
    for base_key, cells in cluster.converged_rows(view.base_table).items():
        canonical = canonical_base_row(view, cells)
        if canonical:
            expected[base_key] = canonical
    return expected


def actual_canonical_rows(cluster, view: ViewDefinition,
                          live: Optional[Dict[Hashable,
                                              Dict[Any,
                                                   VersionedEntry]]] = None
                          ) -> Dict[Hashable, Dict[ColumnName, Cell]]:
    """Canonical live rows actually present in the view.

    ``live`` (from :func:`~repro.views.invariants.live_entries`) can be
    passed in to avoid recomputing it.  A base key with several live
    entries — a broken invariant mid-repair — canonicalizes to a
    conflict marker that can never match any expected form.
    """
    if live is None:
        live = live_entries(cluster, view)
    actual: Dict[Hashable, Dict[ColumnName, Cell]] = {}
    for base_key, entries in live.items():
        if len(entries) != 1:
            keys = sorted(entries, key=repr)
            actual[base_key] = {_CONFLICT_MARKER: Cell(repr(keys), 0)}
            continue
        (entry,) = entries.values()
        actual[base_key] = canonical_view_entry(view, entry)
    return actual


def _differing_keys(expected, actual) -> List[Hashable]:
    keys = set(expected) | set(actual)
    return sorted((key for key in keys
                   if expected.get(key) != actual.get(key)), key=repr)


def divergent_base_keys(cluster, view: ViewDefinition) -> List[Hashable]:
    """Base keys whose canonical expected and actual rows disagree.

    Introspective ground truth (no simulated time): used by experiments
    to sample divergence over time, and by tests as the oracle the
    scrubber must drive to empty.
    """
    return _differing_keys(expected_canonical_rows(cluster, view),
                           actual_canonical_rows(cluster, view))


def dirty_buckets(cluster, view: ViewDefinition, depth: int
                  ) -> Tuple[List[int], Dict[Hashable, Dict[Any,
                                                            VersionedEntry]]]:
    """The sorted hash buckets holding a key whose expected and actual
    canonical rows differ.

    Returns the bucket list plus the live-entry map (reused by callers
    for stray-row checks, saving a second storage sweep).
    """
    live = live_entries(cluster, view)
    keys = _differing_keys(expected_canonical_rows(cluster, view),
                           actual_canonical_rows(cluster, view, live))
    return sorted({bucket_of(key, depth) for key in keys}), live


def verify_row(coordinator, view: ViewDefinition, base_key: Hashable,
               quorum: int, live_keys: Tuple[Any, ...] = ()):
    """Confirm one base row's divergence with quorum reads; a process.

    ``live_keys`` are the view keys introspection currently shows live
    for ``base_key`` — anything besides the expected live key is a stray
    row.  Returns a :class:`Divergence` or None (row is clean).  Raises
    :class:`~repro.errors.QuorumError` when too few replicas respond —
    callers skip the row and retry on a later round.
    """
    columns = (view.view_key_column, *view.materialized_columns)
    base = yield from coordinator.get(view.base_table, base_key, columns,
                                      quorum)
    expected = canonical_base_row(view, base)
    expected_live = expected[LIVE_MARKER].value if expected else None
    strays = sorted((key for key in live_keys if key != expected_live),
                    key=repr)
    if strays:
        return Divergence(view.name, base_key, "stray-live-rows",
                          f"unexpected live rows {strays!r}",
                          strays=tuple(strays))
    if not expected:
        return None
    merged = yield from coordinator.get_row(view.name, expected_live, quorum)
    entry = next((e for e in split_wide_row(expected_live, merged)
                  if e.base_key == base_key), None)
    if entry is None or not entry.is_live:
        return Divergence(view.name, base_key, "missing-live-row",
                          f"expected live row under {expected_live!r}")
    if canonical_view_entry(view, entry) != expected:
        return Divergence(view.name, base_key, "content-mismatch",
                          f"live row under {expected_live!r} does not match "
                          "the quorum-merged base row")
    return None
