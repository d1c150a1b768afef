"""Versioned-view row encoding (paper Section IV-B, Definition 3).

Physical layout
---------------

A view is stored as a regular replicated table whose row key is the *view
key*.  Because several base rows can share one view key, each view row is
a *wide row*: every cell is namespaced by the base key it belongs to, so
the cell ``V[k_V, (k_B, c)]`` is "column ``c`` of base row ``k_B``'s entry
under view key ``k_V``".  An entry stores only its ``(k_B, "Next")``
cell and its materialized cells:

``(k_B, "Next")``
    The versioning pointer.  A *self-pointer* (value == the row's view
    key) marks the live row; any other value marks a stale row pointing
    at a more recent view key for ``k_B``.  There is no Init mark
    (Section IV-F's ``Init``): a move points the old row at the new key
    first and writes the new row already live, so a stale pointer may
    name a row not written yet (a *cut move*, see :func:`hop_lands`).

The paper's ``B`` column is not stored: readers take the base key from
the cell names, at the ``Next`` pointer's base timestamp.

The NULL anchor
---------------

A base row whose view-key column is NULL has no row in the (logical)
view.  Physically we anchor its chain at a reserved sentinel view key,
:data:`NULL_VIEW_KEY`: deleting the view key moves the live row to the
sentinel, and the very first propagation for a base row starts its chain
there.  This makes first-inserts and deletions ordinary view-key updates
(no special cases in Algorithm 2) while keeping sentinel rows invisible
to applications (no client ever Gets the sentinel key).

Sub-timestamps
--------------

One base-table update triggers several view Puts (stale pointer, new
live row with its copied data, materialized cells) that share the base
update's timestamp.  View cells therefore carry *scaled* timestamps
``base_ts * TS_SCALE + phase``: each phase beats the lower ones of the
same update, any later base update beats them all, and a retried Put
never overwrites a newer phase.  Chain order is decided on base
timestamps alone (:func:`hop_lands`): a finished move leaves the old
row's pointer at ``(t, PHASE_STALE)`` and the new row's at
``(t, PHASE_LIVE)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Tuple

from repro.common.records import Cell, ColumnName
from repro.views.definition import NEXT_COLUMN

__all__ = [
    "NULL_VIEW_KEY",
    "TS_SCALE",
    "PHASE_ROW",
    "PHASE_LIVE",
    "PHASE_STALE",
    "PHASE_COMPACT",
    "PHASE_PRUNE",
    "view_timestamp",
    "base_timestamp_of",
    "hop_lands",
    "view_column",
    "split_wide_row",
    "VersionedEntry",
]

# Reserved view key anchoring the chains of base rows that are currently
# absent from the view (NULL / deleted / predicate-rejected view keys).
NULL_VIEW_KEY = "\x00__VIEW_KEY_NULL__"

# Scaled-timestamp phases; see module docstring.  Higher phases of the
# same base update supersede lower ones; all phases stay strictly below
# any later base update's cells.
TS_SCALE = 8
PHASE_ROW = 1      # materialized cells (Alg. 2 line 12)
PHASE_LIVE = 2     # self-pointer (new live row, same-key refresh)
PHASE_STALE = 3    # stale-marking pointer writes (Alg. 2 lines 8 and 10)
PHASE_COMPACT = 4  # NULL anchor repointed at the live row (compact_anchor)
PHASE_PRUNE = 5    # GC pruning tombstones (remove a stale row entirely)

_PHASES = (PHASE_ROW, PHASE_LIVE, PHASE_STALE, PHASE_COMPACT, PHASE_PRUNE)


def view_timestamp(base_ts: int, phase: int) -> int:
    """Scale a base-update timestamp into the view's timestamp space."""
    if phase not in _PHASES:
        raise ValueError(f"unknown phase {phase}")
    return base_ts * TS_SCALE + phase


def base_timestamp_of(view_ts: int) -> int:
    """Recover the base-update timestamp from a scaled view timestamp.

    NULL timestamps pass through unchanged.
    """
    if view_ts < 0:
        return view_ts
    return view_ts // TS_SCALE


def hop_lands(pointer: Cell, target_next: Cell) -> bool:
    """True if a walk may hop along the stale ``pointer`` (a row's
    ``Next``, naming key K at base timestamp t) to K, whose own ``Next``
    is ``target_next``: K holds a pointer at base timestamp >= t, so the
    move that wrote ``pointer`` wrote K too, or a later move left K.

    Anything else is a *cut move*: the move's line 8 landed and its new
    row did not (yet).  K then holds no entry, or an older one on a
    reused key (the a->b@10, b->a@11 "cycle") that must not be walked.
    """
    return (not target_next.is_null
            and base_timestamp_of(target_next.timestamp)
            >= base_timestamp_of(pointer.timestamp))


def view_column(base_key: Hashable, column: ColumnName) -> Tuple:
    """The wide-row cell name for ``column`` of base row ``base_key``."""
    return (base_key, column)


@dataclass
class VersionedEntry:
    """One base row's entry inside a view row (live or stale)."""

    view_key: Any
    base_key: Hashable
    next_cell: Cell
    cells: Dict[ColumnName, Cell]

    @property
    def is_live(self) -> bool:
        """True if the Next pointer is a self-pointer (live row)."""
        return (not self.next_cell.is_null
                and self.next_cell.value == self.view_key)

    @property
    def next_key(self) -> Any:
        """The Next pointer's target view key (None if unset)."""
        return None if self.next_cell.is_null else self.next_cell.value

    @property
    def base_ts(self) -> int:
        """The base-update timestamp that produced the Next pointer."""
        return base_timestamp_of(self.next_cell.timestamp)


def split_wide_row(view_key: Any,
                   cells: Dict[ColumnName, Cell]) -> List[VersionedEntry]:
    """Split a merged wide view row into per-base-key entries.

    ``cells`` maps wide-row column names ``(base_key, column)`` to cells.
    Entries without a live Next cell are still returned (their
    ``next_cell`` may be null) so invariant checkers can see partial
    states; readers filter with :attr:`VersionedEntry.is_live`.
    """
    grouped: Dict[Hashable, Dict[ColumnName, Cell]] = {}
    for name, cell in cells.items():
        if not (isinstance(name, tuple) and len(name) == 2):
            continue
        base_key, column = name
        grouped.setdefault(base_key, {})[column] = cell
    entries = []
    for base_key, columns in grouped.items():
        next_cell = columns.pop(NEXT_COLUMN, Cell.null())
        entries.append(VersionedEntry(view_key, base_key, next_cell, columns))
    entries.sort(key=lambda entry: repr(entry.base_key))
    return entries
