"""Record model: cells, tombstones, rows, and last-writer-wins merging.

Follows the paper's Section II model: a table maps a key to a set of named
cells; each cell holds a value and a timestamp.  Deletion writes a
*tombstone* (a NULL value with the deleting Put's timestamp); readers
observe tombstoned cells as NULL until a later-timestamped value arrives.

Timestamps are application-supplied and totally order all updates to a cell.
Concurrent Puts can carry equal timestamps; to keep replicas convergent,
ties are broken deterministically: a non-tombstone beats a tombstone, and
otherwise the larger serialized value wins (this mirrors Cassandra's
tie-break rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, Iterator, Optional, Tuple

__all__ = [
    "NULL_TIMESTAMP",
    "Cell",
    "Row",
    "ColumnName",
    "cell_wins",
    "merge_cells",
    "merge_rows",
    "stale_cells",
]

# The paper: "A NULL timestamp is assumed to be smaller than all non-NULL
# timestamps."  We represent it as -1; real timestamps are >= 0.
NULL_TIMESTAMP = -1

# Column names are either plain strings (base tables) or
# ``(base_key, column)`` tuples (wide view rows); anything hashable works.
ColumnName = Hashable


def _value_rank(value: Any) -> Tuple[str, str]:
    """A total order over heterogeneous cell values, for tie-breaking."""
    return (type(value).__name__, repr(value))


@dataclass(frozen=True, slots=True)
class Cell:
    """An immutable (value, timestamp) pair; ``tombstone`` marks deletion."""

    value: Any
    timestamp: int
    tombstone: bool = False

    def __post_init__(self):
        if self.tombstone and self.value is not None:
            raise ValueError("tombstone cells must carry a None value")

    @property
    def is_null(self) -> bool:
        """True if a reader should observe this cell as NULL."""
        return self.tombstone or self.value is None

    @staticmethod
    def null() -> "Cell":
        """The cell returned when nothing was ever written.

        Cells are immutable, so this is a shared singleton — never-written
        columns are read far more often than they are written.
        """
        return _NULL_CELL

    @staticmethod
    def make(value: Any, timestamp: int) -> "Cell":
        """Build a live cell, or a tombstone if ``value`` is None."""
        if value is None:
            return Cell(None, timestamp, tombstone=True)
        return Cell(value, timestamp)

    def reads_as(self) -> Tuple[Any, int]:
        """The (value, timestamp) a client observes for this cell."""
        if self.tombstone:
            return (None, self.timestamp)
        return (self.value, self.timestamp)


_NULL_CELL = Cell(None, NULL_TIMESTAMP)


def cell_wins(challenger: Cell, incumbent: Optional[Cell]) -> bool:
    """True if ``challenger`` supersedes ``incumbent`` under LWW rules.

    Deterministic on all replicas: larger timestamp wins; on a timestamp
    tie a live value beats a tombstone; on a live/live tie the larger
    serialized value wins; equal cells do not replace each other.
    """
    if incumbent is None:
        return True
    if challenger.timestamp != incumbent.timestamp:
        return challenger.timestamp > incumbent.timestamp
    if challenger.tombstone != incumbent.tombstone:
        return incumbent.tombstone
    return _value_rank(challenger.value) > _value_rank(incumbent.value)


def merge_cells(cells: Iterable[Optional[Cell]]) -> Cell:
    """Merge replica responses for one cell: the LWW winner.

    ``None`` entries (replica had nothing) are treated as never-written.
    Returns :meth:`Cell.null` when no replica had a value.
    """
    winner: Optional[Cell] = None
    for cell in cells:
        if cell is None:
            continue
        # Replicas usually hold the very object one write sent them all:
        # it cannot beat itself.
        if winner is None or (cell is not winner and cell_wins(cell, winner)):
            winner = cell
    return winner if winner is not None else Cell.null()


def merge_rows(rows: Iterable[Dict[ColumnName, Optional[Cell]]]
               ) -> Dict[ColumnName, Cell]:
    """Merge replica copies of one row: the LWW winner of every column.

    The union of the rows' columns, each holding the cell that
    :func:`merge_cells` would pick for it; ``None`` cells (the replica
    never had the column) are ignored.  Every replica merge outside the
    per-column quorum Get goes through here — read repair, anti-entropy,
    index reads and the converged-state readers — so a versioning scheme
    that keeps siblings changes this function and :func:`stale_cells`,
    not their callers.
    """
    merged: Dict[ColumnName, Cell] = {}
    for row in rows:
        for column, cell in row.items():
            if cell is None:
                continue
            held = merged.get(column)
            # The same object on two replicas (one write sent it to
            # both) is no contest.
            if held is None or (held is not cell and cell_wins(cell, held)):
                merged[column] = cell
    return merged


def stale_cells(winners: Dict[ColumnName, Cell],
                local: Dict[ColumnName, Optional[Cell]]
                ) -> Dict[ColumnName, Cell]:
    """The ``winners`` a replica holding ``local`` lacks or holds older.

    Applying the result to the replica brings it up to ``winners``.  A
    never-written winner (``NULL_TIMESTAMP``: what a column Get merges
    to when no replica had the column) is nothing to push.
    """
    stale: Dict[ColumnName, Cell] = {}
    for column, winner in winners.items():
        held = local.get(column)
        # The replica a winner was read from holds that very object:
        # nothing to compare (every cell of an R=1 read).
        if (held is not winner and winner.timestamp != NULL_TIMESTAMP
                and cell_wins(winner, held)):
            stale[column] = winner
    return stale


class Row:
    """A mutable mapping of column name to :class:`Cell` with LWW apply."""

    __slots__ = ("_cells",)

    def __init__(self, cells: Optional[Dict[ColumnName, Cell]] = None):
        self._cells: Dict[ColumnName, Cell] = dict(cells) if cells else {}

    def get(self, column: ColumnName) -> Cell:
        """The cell for ``column`` (:meth:`Cell.null` if absent)."""
        return self._cells.get(column, _NULL_CELL)

    def cells_for(self, columns: Iterable[ColumnName]
                  ) -> Dict[ColumnName, Optional[Cell]]:
        """The stored cells for ``columns`` (``None`` where never written).

        The replica read path: one dict lookup per column, no NULL-cell
        materialization for absent columns.
        """
        get = self._cells.get
        return {column: get(column) for column in columns}

    def apply(self, cells: Dict[ColumnName, Cell]
              ) -> Dict[ColumnName, Tuple[Cell, Cell]]:
        """LWW-apply one write's ``cells``, in one pass.

        Returns ``{column: (old_cell, new_cell)}`` for the columns that
        changed (``old_cell`` is :meth:`Cell.null` where the row had
        none); a cell that loses the LWW race, or is the very one
        stored, is left out.
        """
        stored = self._cells
        changed: Dict[ColumnName, Tuple[Cell, Cell]] = {}
        for column, cell in cells.items():
            old = stored.get(column)
            if old is None:
                old = _NULL_CELL
            elif old is cell or not cell_wins(cell, old):
                continue
            stored[column] = cell
            changed[column] = (old, cell)
        return changed

    def columns(self) -> Iterator[ColumnName]:
        """Iterate over column names present in the row."""
        return iter(self._cells)

    def cells(self) -> Dict[ColumnName, Cell]:
        """A copy of every stored cell, by column (a whole-row read)."""
        return dict(self._cells)

    def copy(self) -> "Row":
        """A shallow copy (cells are immutable, so this is safe)."""
        return Row(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, column: ColumnName) -> bool:
        return column in self._cells

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Row({self._cells!r})"
