"""Tests for cells, tombstones, rows, and LWW merge rules."""

from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import records
from repro.common import (
    NULL_TIMESTAMP,
    Cell,
    Row,
    cell_wins,
    merge_cells,
    merge_rows,
    stale_cells,
)


# ---------------------------------------------------------------------------
# Cell basics
# ---------------------------------------------------------------------------


def test_null_cell():
    cell = Cell.null()
    assert cell.is_null
    assert cell.timestamp == NULL_TIMESTAMP
    assert cell.reads_as() == (None, NULL_TIMESTAMP)


def test_make_live_cell():
    cell = Cell.make("hello", 10)
    assert not cell.is_null
    assert not cell.tombstone
    assert cell.reads_as() == ("hello", 10)


def test_make_none_value_is_tombstone():
    cell = Cell.make(None, 10)
    assert cell.tombstone
    assert cell.is_null
    assert cell.reads_as() == (None, 10)


def test_tombstone_must_carry_none():
    with pytest.raises(ValueError):
        Cell("value", 10, tombstone=True)


def test_cells_are_immutable():
    cell = Cell.make("x", 1)
    with pytest.raises(AttributeError):
        cell.value = "y"


# ---------------------------------------------------------------------------
# LWW ordering
# ---------------------------------------------------------------------------


def test_higher_timestamp_wins():
    old = Cell.make("old", 10)
    new = Cell.make("new", 20)
    assert cell_wins(new, old)
    assert not cell_wins(old, new)


def test_anything_beats_missing():
    assert cell_wins(Cell.make("x", 0), None)
    assert cell_wins(Cell.make(None, 0), None)


def test_tombstone_with_higher_timestamp_wins():
    live = Cell.make("x", 10)
    tomb = Cell.make(None, 20)
    assert cell_wins(tomb, live)


def test_timestamp_tie_live_beats_tombstone():
    live = Cell.make("x", 10)
    tomb = Cell.make(None, 10)
    assert cell_wins(live, tomb)
    assert not cell_wins(tomb, live)


def test_timestamp_tie_larger_value_wins():
    a = Cell.make("aaa", 10)
    b = Cell.make("bbb", 10)
    assert cell_wins(b, a)
    assert not cell_wins(a, b)


def test_equal_cells_do_not_replace():
    a = Cell.make("same", 10)
    b = Cell.make("same", 10)
    assert not cell_wins(a, b)
    assert not cell_wins(b, a)


def test_null_timestamp_below_everything():
    assert cell_wins(Cell.make("x", 0), Cell.null())


@given(
    ts_a=st.integers(min_value=0, max_value=1000),
    ts_b=st.integers(min_value=0, max_value=1000),
    val_a=st.one_of(st.none(), st.text(max_size=5), st.integers()),
    val_b=st.one_of(st.none(), st.text(max_size=5), st.integers()),
)
def test_cell_wins_is_antisymmetric(ts_a, ts_b, val_a, val_b):
    """For distinct cells, exactly one of the two directions wins."""
    a = Cell.make(val_a, ts_a)
    b = Cell.make(val_b, ts_b)
    if a == b:
        assert not cell_wins(a, b) and not cell_wins(b, a)
    else:
        assert cell_wins(a, b) != cell_wins(b, a)


@given(
    cells=st.lists(
        st.tuples(
            st.one_of(st.none(), st.text(max_size=4), st.integers(-5, 5)),
            st.integers(min_value=0, max_value=50),
        ),
        min_size=1,
        max_size=8,
    ),
    order=st.randoms(use_true_random=False),
)
def test_merge_is_order_insensitive(cells, order):
    """merge_cells result is independent of replica response order."""
    built = [Cell.make(v, t) for v, t in cells]
    shuffled = list(built)
    order.shuffle(shuffled)
    assert merge_cells(built) == merge_cells(shuffled)


def test_merge_ignores_missing_replicas():
    cell = Cell.make("x", 5)
    assert merge_cells([None, cell, None]) == cell


def test_merge_empty_returns_null():
    assert merge_cells([]) == Cell.null()
    assert merge_cells([None, None]) == Cell.null()


# ---------------------------------------------------------------------------
# Replica rows: merge_rows / stale_cells
# ---------------------------------------------------------------------------

# Up to four replica copies of one row over three columns; values and
# timestamps come from small ranges so ties (equal timestamps, tombstone
# against live value) are common, and a replica may report a column as
# ``None`` (asked for, never written there).
_cells = st.builds(Cell.make, st.one_of(st.none(), st.integers(0, 3)),
                   st.integers(0, 4))
_replica_rows = st.lists(
    st.dictionaries(st.sampled_from("abc"), st.one_of(st.none(), _cells)),
    max_size=4)


@given(rows=_replica_rows)
def test_merge_rows_is_the_per_column_merge_in_any_order(rows):
    merged = merge_rows(rows)
    columns = {column for row in rows for column, cell in row.items()
               if cell is not None}
    assert merged == {
        column: merge_cells(row.get(column) for row in rows)
        for column in columns}
    for permuted in permutations(rows):  # commutative
        assert merge_rows(permuted) == merged
    for cut in range(len(rows) + 1):  # associative
        assert merge_rows([merge_rows(rows[:cut]),
                           merge_rows(rows[cut:])]) == merged
    assert merge_rows([merged, merged]) == merged  # idempotent
    assert merge_rows([*rows, merged, *rows]) == merged


@given(rows=_replica_rows)
def test_applying_its_stale_cells_brings_a_replica_to_the_merge(rows):
    winners = merge_rows(rows)
    for row in rows:
        replica = Row({column: cell for column, cell in row.items()
                       if cell is not None})
        stale = stale_cells(winners, row)
        assert replica.apply(stale).keys() == stale.keys()  # none in vain
        assert replica.cells() == winners


def test_replicas_holding_the_same_cell_objects_merge_without_a_contest(
        monkeypatch):
    """One write sends one ``Cell`` object to every replica, so replicas
    that agree usually hold the very same objects: merging them compares
    nothing.  Equal but distinct cells are still compared."""
    calls = []

    def counting(challenger, incumbent):
        calls.append((challenger, incumbent))
        return cell_wins(challenger, incumbent)

    monkeypatch.setattr(records, "cell_wins", counting)
    written = {"a": Cell.make("v", 5), "b": Cell.make(None, 7)}
    replicas = [dict(written), dict(written), {**written, "c": None}]
    assert merge_rows(replicas) == written
    assert merge_cells(replica["a"] for replica in replicas) is written["a"]
    assert calls == []
    assert merge_rows([{"a": Cell.make("v", 5)}, {"a": Cell.make("v", 5)}])
    assert merge_cells([Cell.make("v", 5), Cell.make("v", 5)])
    assert len(calls) == 2


@given(rows=_replica_rows, columns=st.sets(st.sampled_from("abcd")))
def test_stale_cells_never_pushes_a_never_written_cell(rows, columns):
    """A column Get merges a column no replica holds to ``Cell.null()``;
    that is not something to repair a replica with."""
    winners = {column: merge_cells(row.get(column) for row in rows)
               for column in columns}
    for row in rows:
        missing = stale_cells(winners, row)
        assert all(cell.timestamp != NULL_TIMESTAMP
                   for cell in missing.values())
        # ... and what is left is the whole-row diff, for those columns.
        assert missing == {
            column: cell
            for column, cell in stale_cells(merge_rows(rows), row).items()
            if column in columns}


# ---------------------------------------------------------------------------
# Row
# ---------------------------------------------------------------------------


def test_row_get_missing_column_is_null():
    row = Row()
    assert row.get("missing").is_null


def test_row_apply_lww():
    row = Row()
    assert row.apply({"c": Cell.make("v1", 10)})
    assert not row.apply({"c": Cell.make("v0", 5)})
    assert row.get("c").value == "v1"
    assert row.apply({"c": Cell.make("v2", 20)})
    assert row.get("c").value == "v2"


def test_row_tombstone_hides_value():
    row = Row()
    row.apply({"c": Cell.make("v", 10)})
    row.apply({"c": Cell.make(None, 20)})
    assert row.get("c").is_null
    assert row.get("c").timestamp == 20
    assert row.cells_for(("c",))["c"].is_null


def test_row_value_after_tombstone():
    row = Row()
    row.apply({"c": Cell.make(None, 20)})
    row.apply({"c": Cell.make("back", 30)})
    assert row.get("c").value == "back"
    assert not row.cells_for(("c",))["c"].is_null


def test_row_copy_is_independent():
    row = Row()
    row.apply({"c": Cell.make("v", 1)})
    clone = row.copy()
    clone.apply({"c": Cell.make("w", 2)})
    assert row.get("c").value == "v"
    assert clone.get("c").value == "w"


def test_row_contains_and_len():
    row = Row()
    assert "c" not in row
    assert len(row) == 0
    row.apply({"c": Cell.make("v", 1)})
    assert "c" in row
    assert len(row) == 1


@given(
    writes=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.one_of(st.none(), st.integers(0, 9)),
            st.integers(min_value=0, max_value=30),
        ),
        max_size=20,
    ),
    order=st.randoms(use_true_random=False),
)
def test_row_apply_order_insensitive(writes, order):
    """Applying the same set of writes in any order converges (CRDT-style)."""
    forward = Row()
    for column, value, ts in writes:
        forward.apply({column: Cell.make(value, ts)})
    shuffled_writes = list(writes)
    order.shuffle(shuffled_writes)
    backward = Row()
    for column, value, ts in shuffled_writes:
        backward.apply({column: Cell.make(value, ts)})
    for column in ("a", "b", "c"):
        assert forward.get(column) == backward.get(column)
