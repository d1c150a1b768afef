"""View definitions (paper Definition 1).

A view is defined by a base table, a *view-key column*, and zero or more
*view-materialized columns*.  For every base row whose view-key column is
non-NULL, the view holds a row keyed by that column's value, carrying the
base key (column ``B``) and the materialized columns.

As the paper notes (Section III), relational selection is an easy
extension; we support it as an optional predicate over the view-key value
(``key_predicate``): base rows whose view-key value fails the predicate
are excluded from the view, exactly as if their view key were NULL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, FrozenSet, Iterable, Optional, Tuple

from repro.common.records import ColumnName
from repro.errors import ViewDefinitionError

__all__ = ["ViewDefinition", "BASE_KEY_COLUMN", "NEXT_COLUMN"]

# Reserved column names inside view rows (paper Figures 1-2 use "B"/"Next").
# Only Next is stored (see repro.views.versioned); "Init", the Section IV-F
# mark, is a phase of Next's timestamp but stays reserved as a name.
BASE_KEY_COLUMN = "B"
NEXT_COLUMN = "Next"

_RESERVED = frozenset({BASE_KEY_COLUMN, NEXT_COLUMN, "Init"})


@dataclass(frozen=True)
class ViewDefinition:
    """A single-table projection view with an optional key predicate."""

    name: str
    base_table: str
    view_key_column: ColumnName
    materialized_columns: Tuple[ColumnName, ...] = ()
    key_predicate: Optional[Callable[[Any], bool]] = field(
        default=None, compare=False)
    # Base columns whose updates require propagation (Algorithm 1): the
    # view key and the materialized columns, fixed at construction.
    watched_columns: FrozenSet[ColumnName] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.name:
            raise ViewDefinitionError("view name must be non-empty")
        if not self.base_table:
            raise ViewDefinitionError("base table name must be non-empty")
        if self.name == self.base_table:
            raise ViewDefinitionError(
                f"view {self.name!r} cannot share its base table's name")
        materialized = tuple(self.materialized_columns)
        object.__setattr__(self, "materialized_columns", materialized)
        if self.view_key_column in materialized:
            raise ViewDefinitionError(
                f"view key column {self.view_key_column!r} cannot also be "
                "materialized")
        if len(set(materialized)) != len(materialized):
            raise ViewDefinitionError("duplicate materialized columns")
        for column in (self.view_key_column, *materialized):
            if column in _RESERVED:
                raise ViewDefinitionError(
                    f"column name {column!r} is reserved for view plumbing")
        object.__setattr__(self, "watched_columns",
                           frozenset((self.view_key_column, *materialized)))

    def is_materialized(self, column: ColumnName) -> bool:
        """True if ``column`` is a view-materialized column of this view."""
        return column in self.materialized_columns

    def affects(self, columns: Iterable[ColumnName]) -> bool:
        """True if a Put touching ``columns`` requires propagation."""
        return not self.watched_columns.isdisjoint(columns)

    def accepts_key(self, value: Any) -> bool:
        """Apply the optional selection predicate to a view-key value.

        NULL never passes (Definition 1: only non-NULL view keys produce
        view rows).
        """
        if value is None:
            return False
        if self.key_predicate is None:
            return True
        return bool(self.key_predicate(value))
