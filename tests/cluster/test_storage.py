"""Tests for the per-node local storage engine."""

import pytest

from repro.cluster.storage import LocalStorageEngine
from repro.common import Cell
from repro.errors import NoSuchTableError, TableExistsError


@pytest.fixture
def engine():
    engine = LocalStorageEngine()
    engine.create_table("T")
    return engine


def test_create_and_has_table(engine):
    assert engine.has_table("T")
    assert not engine.has_table("U")
    assert list(engine.keys("T")) == []


def test_duplicate_table_rejected(engine):
    with pytest.raises(TableExistsError):
        engine.create_table("T")


def test_unknown_table_rejected(engine):
    with pytest.raises(NoSuchTableError):
        engine.read("U", "k", ("c",))
    with pytest.raises(NoSuchTableError):
        engine.apply("U", "k", {"c": Cell.make(1, 0)})


def test_read_missing_row(engine):
    assert engine.read("T", "nope", ("a", "b")) == {"a": None, "b": None}
    assert engine.read_row("T", "nope") == {}


def test_apply_and_read(engine):
    changed = engine.apply("T", "k", {"a": Cell.make(1, 10)})
    assert set(changed) == {"a"}
    old, new = changed["a"]
    assert old.is_null and new.value == 1
    assert engine.read("T", "k", ("a",))["a"] == Cell.make(1, 10)


def test_apply_lww_per_cell(engine):
    engine.apply("T", "k", {"a": Cell.make("new", 20)})
    changed = engine.apply("T", "k", {"a": Cell.make("old", 10),
                                      "b": Cell.make("x", 10)})
    assert set(changed) == {"b"}
    assert engine.read("T", "k", ("a", "b")) == {
        "a": Cell.make("new", 20),
        "b": Cell.make("x", 10),
    }


def test_apply_returns_transition(engine):
    engine.apply("T", "k", {"a": Cell.make(1, 10)})
    changed = engine.apply("T", "k", {"a": Cell.make(2, 20)})
    old, new = changed["a"]
    assert old == Cell.make(1, 10)
    assert new == Cell.make(2, 20)


def test_tombstone_round_trip(engine):
    engine.apply("T", "k", {"a": Cell.make(1, 10)})
    engine.apply("T", "k", {"a": Cell.make(None, 20)})
    cell = engine.read("T", "k", ("a",))["a"]
    assert cell.tombstone and cell.timestamp == 20
    engine.apply("T", "k", {"a": Cell.make(2, 30)})
    assert engine.read("T", "k", ("a",))["a"] == Cell.make(2, 30)


def test_read_row_returns_all_cells(engine):
    engine.apply("T", "k", {"a": Cell.make(1, 10), "b": Cell.make(2, 10)})
    row = engine.read_row("T", "k")
    assert row == {"a": Cell.make(1, 10), "b": Cell.make(2, 10)}


def test_read_absent_column_is_none_not_null_cell(engine):
    engine.apply("T", "k", {"a": Cell.make(1, 10)})
    assert engine.read("T", "k", ("b",))["b"] is None


def test_keys_and_counts(engine):
    for i in range(5):
        engine.apply("T", f"k{i}", {"a": Cell.make(i, 1), "b": Cell.make(i, 1)})
    assert sorted(engine.keys("T")) == [f"k{i}" for i in range(5)]
    assert [engine.row_width("T", key) for key in engine.keys("T")] == [2] * 5


def test_wide_row_tuple_columns(engine):
    """Views use (base_key, column) tuples as column names."""
    engine.apply("T", "viewkey", {
        (1, "Next"): Cell.make("viewkey", 5),
        (2, "Next"): Cell.make("other", 7),
    })
    row = engine.read_row("T", "viewkey")
    assert row[(1, "Next")].value == "viewkey"
    assert row[(2, "Next")].value == "other"
