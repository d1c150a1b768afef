"""Cassandra-style native secondary indexes (the paper's SI baseline).

Each node keeps a *local index fragment* over the base rows it stores:
``indexed value -> set of base keys``.  Fragments are partitioned and
replicated by *primary* key (they index only co-located rows), which is why
the system can update them synchronously with each replica write, and why
reading through them requires broadcasting the lookup to every node and
merging the per-fragment results (paper, Sections I and VI-A).
"""

from __future__ import annotations

from typing import (
    Any, Dict, FrozenSet, Hashable, Iterable, Optional, Set, Tuple)

from repro.common.records import Cell, ColumnName

__all__ = ["LocalIndexFragment", "IndexSchema"]


class LocalIndexFragment:
    """One node's index over its local rows for a single column."""

    def __init__(self, table: str, column: ColumnName):
        self.table = table
        self.column = column
        self._postings: Dict[Any, Set[Hashable]] = {}

    def on_cell_changed(self, key: Hashable, old: Cell, new: Cell) -> None:
        """Maintain the fragment after the indexed column's cell changed.

        Called by the storage node inside the same atomic local write that
        changed the base row, which is what makes native index maintenance
        synchronous.
        """
        if not old.is_null:
            postings = self._postings.get(old.value)
            if postings is not None:
                postings.discard(key)
                if not postings:
                    del self._postings[old.value]
        if not new.is_null:
            self._postings.setdefault(new.value, set()).add(key)

    def lookup(self, value: Any) -> Set[Hashable]:
        """Base keys whose indexed column currently equals ``value``."""
        return set(self._postings.get(value, ()))

    def rebuild(self, rows: Iterable[Tuple[Hashable, Optional[Cell]]]) -> None:
        """Rebuild the fragment from ``(key, cell)`` pairs (bootstrap)."""
        self._postings.clear()
        for key, cell in rows:
            if cell is not None and not cell.is_null:
                self._postings.setdefault(cell.value, set()).add(key)


_NO_COLUMNS: FrozenSet[ColumnName] = frozenset()


class IndexSchema:
    """Cluster-wide registry of which columns are indexed on which tables."""

    def __init__(self):
        self._indexed: Dict[str, FrozenSet[ColumnName]] = {}

    def add(self, table: str, column: ColumnName) -> None:
        """Declare a secondary index on ``table.column``."""
        self._indexed[table] = self.columns_for(table) | {column}

    def columns_for(self, table: str) -> FrozenSet[ColumnName]:
        """Indexed columns of ``table`` (empty set if none).

        Immutable, so the same object is handed to every caller: replica
        writes ask on every request.
        """
        return self._indexed.get(table, _NO_COLUMNS)
