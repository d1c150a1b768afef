"""Equi-join views (the paper's PNUTS-style extension, Section III).

The paper: "our approach could be extended to support equi-join views in
much the same way as is done in PNUTS".  PNUTS implements a join view as
a *remote view table* whose records from both base tables are co-located
by join-key value, so a join read touches a single partition and pairs
the two sides there.

Here a join view over ``left`` and ``right`` base tables is exactly two
single-table projection views sharing the join key as their view key —
each maintained independently by the standard Algorithms 1-3 machinery —
plus a read path that fetches both wide rows for a join-key value and
emits the pairwise matches.  Since both child views are keyed (and
therefore partitioned) by the join key, a join read costs two
single-partition view Gets, mirroring PNUTS' locality property.

Consistency: each side is eventually consistent with its own base table
(the usual asynchronous staleness), so a join read may transiently see a
pair missing while one side's update is still propagating — the same
caveat Section IV spells out for projection views.

A cluster's join views are kept by its
:class:`~repro.views.manager.ViewManager`, in a :class:`JoinRegistry`
(``manager.joins``) beside the projection views it registers there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.common.records import ColumnName
from repro.errors import NoSuchViewError, ViewDefinitionError, ViewExistsError
from repro.views.definition import ViewDefinition

__all__ = ["JoinSide", "JoinViewDefinition", "JoinResult", "JoinRegistry"]


@dataclass(frozen=True)
class JoinSide:
    """One input of an equi-join view."""

    table: str
    join_column: ColumnName
    materialized_columns: Tuple[ColumnName, ...] = ()
    key_predicate: Optional[Callable[[Any], bool]] = field(
        default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "materialized_columns",
                           tuple(self.materialized_columns))


@dataclass(frozen=True)
class JoinViewDefinition:
    """An equi-join view: ``left.join_column == right.join_column``."""

    name: str
    left: JoinSide
    right: JoinSide

    def __post_init__(self):
        if not self.name:
            raise ViewDefinitionError("join view name must be non-empty")
        if self.left.table == self.right.table:
            raise ViewDefinitionError(
                "self-joins are not supported (both sides read "
                f"{self.left.table!r})")

    @property
    def left_view_name(self) -> str:
        """Backing projection view for the left side."""
        return f"{self.name}__left"

    @property
    def right_view_name(self) -> str:
        """Backing projection view for the right side."""
        return f"{self.name}__right"

    def child_definitions(self) -> Tuple[ViewDefinition, ViewDefinition]:
        """The two projection views this join view is built from."""
        left = ViewDefinition(
            self.left_view_name, self.left.table, self.left.join_column,
            self.left.materialized_columns,
            key_predicate=self.left.key_predicate)
        right = ViewDefinition(
            self.right_view_name, self.right.table, self.right.join_column,
            self.right.materialized_columns,
            key_predicate=self.right.key_predicate)
        return left, right


@dataclass(frozen=True)
class JoinResult:
    """One matched pair of a join read.

    ``left_values`` / ``right_values`` map each side's requested columns
    to ``(value, timestamp)``.
    """

    join_key: Any
    left_key: Hashable
    right_key: Hashable
    left_values: Dict[ColumnName, Tuple[Any, int]]
    right_values: Dict[ColumnName, Tuple[Any, int]]

    def left(self, column: ColumnName) -> Any:
        """Value of a left-side column."""
        return self.left_values[column][0]

    def right(self, column: ColumnName) -> Any:
        """Value of a right-side column."""
        return self.right_values[column][0]


def pair_results(join_key: Any, left_rows, right_rows) -> List[JoinResult]:
    """Cartesian pairing of the two sides' live rows for one join key.

    Equi-join semantics: every left base row with the join-key value
    matches every right base row with it (typically 1:N in practice).
    """
    results = []
    for left_row in left_rows:
        for right_row in right_rows:
            results.append(JoinResult(
                join_key=join_key,
                left_key=left_row.base_key,
                right_key=right_row.base_key,
                left_values=dict(left_row.values),
                right_values=dict(right_row.values),
            ))
    return results


class JoinRegistry:
    """The equi-join views registered on one :class:`ViewManager`, which
    each call that needs it is handed (the manager holds the registry)."""

    def __init__(self):
        self._joins: Dict[str, JoinViewDefinition] = {}

    def register(self, manager, definition: JoinViewDefinition) -> None:
        """Register an equi-join view (two projection child views of
        ``manager``)."""
        if (definition.name in self._joins
                or manager.is_view(definition.name)):
            raise ViewExistsError(definition.name)
        left, right = definition.child_definitions()
        manager.register(left)
        manager.register(right)
        self._joins[definition.name] = definition

    def view(self, name: str) -> JoinViewDefinition:
        """Look up a registered join view by name."""
        try:
            return self._joins[name]
        except KeyError:
            raise NoSuchViewError(name) from None

    def get(self, manager, coordinator, join_name: str, join_key,
            left_columns: Tuple[ColumnName, ...],
            right_columns: Tuple[ColumnName, ...], r: int, session=None):
        """Read matched pairs of a join view for one join-key value.

        Two single-partition view Gets of ``manager`` (both child views
        are keyed by the join key) plus in-coordinator pairing — the
        PNUTS locality property for remote view tables.
        """
        definition = self.view(join_name)
        left_rows = yield from manager.view_get(
            coordinator, definition.left_view_name, join_key,
            tuple(left_columns), r, session=session)
        right_rows = yield from manager.view_get(
            coordinator, definition.right_view_name, join_key,
            tuple(right_columns), r, session=session)
        return pair_results(join_key, left_rows, right_rows)
