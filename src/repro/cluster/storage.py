"""Per-node local storage engine.

An in-memory keyed-record store: ``table -> key -> Row``.  Local operations
are atomic (the paper, Section II: "The local Put and Get operations
performed by each individual server are atomic") — in the simulation this
holds because handlers only touch the engine between yields.

The engine is deliberately unaware of replication, quorums, indexes and
views; those live in the node/coordinator layers above it.  Each
operation is one pass: a table is one subscript (a missing one raises
:class:`~repro.errors.NoSuchTableError`), and a write's cells are
LWW-applied to their row by one :meth:`Row.apply
<repro.common.records.Row.apply>`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, Optional, Tuple

from repro.common.records import Cell, ColumnName, Row
from repro.errors import NoSuchTableError, TableExistsError

__all__ = ["LocalStorageEngine"]


class _Tables(dict):
    """``name -> {key: Row}``; a missing name raises
    :class:`NoSuchTableError`, so every lookup is one subscript."""

    __slots__ = ()

    def __missing__(self, name: str):
        raise NoSuchTableError(name)


class LocalStorageEngine:
    """One node's local tables."""

    def __init__(self):
        self._tables: Dict[str, Dict[Hashable, Row]] = _Tables()

    # -- schema ------------------------------------------------------------

    def create_table(self, name: str) -> None:
        """Create an empty table; raises if it already exists."""
        if name in self._tables:
            raise TableExistsError(name)
        self._tables[name] = {}

    def has_table(self, name: str) -> bool:
        """True if ``name`` has been created locally."""
        return name in self._tables

    # -- writes ------------------------------------------------------------

    def apply(
        self, table: str, key: Hashable, cells: Dict[ColumnName, Cell]
    ) -> Dict[ColumnName, Tuple[Cell, Cell]]:
        """LWW-apply ``cells`` to the row; atomic.

        Returns ``{column: (old_cell, new_cell)}`` for the columns that
        actually changed, so callers (e.g. local index maintenance) can
        react to the transition.  Columns whose incoming cell lost the LWW
        race are omitted.
        """
        rows = self._tables[table]
        row = rows.get(key)
        if row is None:
            row = rows[key] = Row()
        return row.apply(cells)

    # -- reads -------------------------------------------------------------

    def read(
        self, table: str, key: Hashable, columns: Tuple[ColumnName, ...]
    ) -> Dict[ColumnName, Optional[Cell]]:
        """The stored cells for ``columns`` (``None`` where never written).

        Tombstoned cells are returned as-is (with their timestamps); the
        coordinator needs them for correct LWW merging across replicas.
        """
        row = self._tables[table].get(key)
        if row is None:
            return {column: None for column in columns}
        return row.cells_for(columns)

    def read_row(self, table: str, key: Hashable) -> Dict[ColumnName, Cell]:
        """Every cell stored for the row (empty dict if the row is absent)."""
        row = self._tables[table].get(key)
        if row is None:
            return {}
        return row.cells()

    def row_width(self, table: str, key: Hashable) -> int:
        """How many cells the row holds (0 if absent): what a whole-row
        read is priced by, without copying the row."""
        row = self._tables[table].get(key)
        return 0 if row is None else len(row)

    def keys(self, table: str) -> Iterator[Hashable]:
        """Iterate over locally stored row keys of ``table``."""
        return iter(self._tables[table])
