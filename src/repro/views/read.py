"""Reading from versioned views: Algorithm 4 of the paper.

A view Get fetches the wide row for the requested view key and returns
only its *live* entries (self-pointing Next).  Stale rows are invisible
to applications.  A view may legitimately contain several live rows
under one view key (several base rows share the view key), so the
result is a list, sorted by ``repr`` of the base key.

A versioned view keeps its stale entries (until a GC pass prunes
them), so a row whose base rows change view key often is mostly stale
entries.  :func:`live_results` decodes
only the live ones: their base keys are read off the row's
self-pointing ``Next`` cells, and their requested columns are looked up
by wide-row name.  (:func:`~repro.views.versioned.split_wide_row`, which
groups every entry, serves the invariant checkers and the scrubber.)

A view Get never waits.  A view-key move makes the old live row stale
before it writes the new one (Section IV-F without the Init mark, see
:mod:`repro.views.maintenance`), so the view never holds two live rows
for one base row — it holds none while a move is between its two Puts,
which is ordinary staleness — and a reader never sees a half-copied
one: the copied cells arrive in the same apply as the new row's
self-pointer.

Both read paths (``ViewManager.view_get`` and the freshness read) run
:func:`read_barrier` if there is a session, then :func:`view_get`
through this module's attribute (mvbench's tracer wraps it).  Neither
adds a coordinator charge: the Get below pays it, so a view Get is
priced like a base Get.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Tuple

from repro.common.records import NULL_TIMESTAMP, Cell, ColumnName
from repro.errors import SessionError, ViewError
from repro.views.definition import (
    BASE_KEY_COLUMN,
    NEXT_COLUMN,
    ViewDefinition,
)
from repro.views.versioned import NULL_VIEW_KEY, base_timestamp_of

__all__ = ["ViewResult", "view_get", "live_results", "read_barrier"]


@dataclass(frozen=True, slots=True)
class ViewResult:
    """One live view row returned by a view Get.

    ``values`` maps each requested column to ``(value, timestamp)``,
    timestamps in base-update units; unset columns read as
    ``(None, -1)``.
    """

    base_key: Hashable
    values: Dict[ColumnName, Tuple[Any, int]]

    def __getitem__(self, column: ColumnName) -> Any:
        """Convenience accessor for a column's value."""
        return self.values[column][0]


def live_results(view_key: Any, cells: Dict[ColumnName, Cell],
                 columns: Tuple[ColumnName, ...]) -> List[ViewResult]:
    """The live entries of the merged wide row ``cells`` stored under
    ``view_key``, as :class:`ViewResult` sorted by ``repr`` of the base
    key.

    A requested ``B`` reads as the base key with its Next pointer's
    base timestamp; ``Next`` itself is plumbing and reads as unset.
    One pass over the row finds the live ``Next`` cells, value first.
    """
    live: Dict[Hashable, int] = {}
    for name, cell in cells.items():
        value = cell.value
        if (value is not None and value == view_key
                and isinstance(name, tuple) and len(name) == 2
                and name[1] == NEXT_COLUMN):
            live[name[0]] = cell.timestamp
    results: List[ViewResult] = []
    for base_key in sorted(live, key=repr):
        values: Dict[ColumnName, Tuple[Any, int]] = {}
        for column in columns:
            if column == BASE_KEY_COLUMN:
                values[column] = (base_key, base_timestamp_of(live[base_key]))
                continue
            cell = (None if column == NEXT_COLUMN
                    else cells.get((base_key, column)))
            if cell is None or cell.timestamp == NULL_TIMESTAMP:
                values[column] = (None, NULL_TIMESTAMP)
            else:
                values[column] = (cell.value,
                                  base_timestamp_of(cell.timestamp))
        results.append(ViewResult(base_key, values))
    return results


def view_get(coordinator, view: ViewDefinition, view_key: Any,
             columns: Tuple[ColumnName, ...], r: int):
    """Algorithm 4: return live rows matching ``view_key``.

    A simulation process; yields a list of :class:`ViewResult` sorted by
    base key.  ``r`` is the read quorum for the underlying wide-row Get.
    """
    if view_key == NULL_VIEW_KEY:
        raise ViewError("the NULL view key is internal and cannot be read")
    cells = yield from coordinator.get_row(view.name, view_key, r)
    return live_results(view_key, cells, columns)


def read_barrier(manager, coordinator, view: ViewDefinition, session):
    """The barrier preceding a view read under ``session``: the
    session's own records for ``view`` resolve first.  Records of a heavy
    chain resolve when the survivor they fold into does, so the
    completions a session registered are barrier enough for lazy
    maintenance too."""
    if session.coordinator_id != coordinator.node.node_id:
        raise SessionError(
            "session guarantee requires all requests to use the "
            "session's coordinator "
            f"(session: {session.coordinator_id}, "
            f"request: {coordinator.node.node_id})")
    pending = session.pending_barriers(view.name)
    if pending and manager.tracer.enabled:
        manager.tracer.emit("session", "view Get blocking",
                            view=view.name, session=session.session_id,
                            pending=pending)
    yield from manager.sessions.barrier(session, view.name)

