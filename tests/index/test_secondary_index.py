"""Unit tests for local secondary-index fragments and the index schema."""

from repro.common import Cell
from repro.index import IndexSchema, LocalIndexFragment


def make_fragment():
    return LocalIndexFragment("T", "city")


def test_insert_and_lookup():
    fragment = make_fragment()
    fragment.on_cell_changed("k1", Cell.null(), Cell.make("London", 1))
    fragment.on_cell_changed("k2", Cell.null(), Cell.make("London", 2))
    fragment.on_cell_changed("k3", Cell.null(), Cell.make("Paris", 3))
    assert fragment.lookup("London") == {"k1", "k2"}
    assert fragment.lookup("Paris") == {"k3"}
    assert fragment.lookup("Berlin") == set()


def test_value_change_moves_posting():
    fragment = make_fragment()
    fragment.on_cell_changed("k", Cell.null(), Cell.make("London", 1))
    fragment.on_cell_changed("k", Cell.make("London", 1),
                             Cell.make("Paris", 2))
    assert fragment.lookup("London") == set()
    assert fragment.lookup("Paris") == {"k"}


def test_tombstone_removes_posting():
    fragment = make_fragment()
    fragment.on_cell_changed("k", Cell.null(), Cell.make("London", 1))
    fragment.on_cell_changed("k", Cell.make("London", 1), Cell.make(None, 2))
    assert fragment.lookup("London") == set()
    assert fragment.lookup(None) == set()


def test_lookup_returns_copy():
    fragment = make_fragment()
    fragment.on_cell_changed("k", Cell.null(), Cell.make("London", 1))
    result = fragment.lookup("London")
    result.add("bogus")
    assert fragment.lookup("London") == {"k"}


def test_entry_count():
    fragment = make_fragment()
    for i in range(5):
        fragment.on_cell_changed(f"k{i}", Cell.null(),
                                 Cell.make(f"v{i % 2}", i))
    assert fragment.lookup("v0") == {"k0", "k2", "k4"}
    assert fragment.lookup("v1") == {"k1", "k3"}


def test_rebuild():
    fragment = make_fragment()
    fragment.on_cell_changed("old", Cell.null(), Cell.make("x", 1))
    fragment.rebuild([
        ("k1", Cell.make("a", 1)),
        ("k2", Cell.make("a", 2)),
        ("k3", None),
        ("k4", Cell.make(None, 3)),
    ])
    assert fragment.lookup("x") == set()
    assert fragment.lookup("a") == {"k1", "k2"}
    assert fragment.lookup(None) == set()


def test_empty_posting_sets_are_garbage_collected():
    fragment = make_fragment()
    fragment.on_cell_changed("k", Cell.null(), Cell.make("London", 1))
    fragment.on_cell_changed("k", Cell.make("London", 1),
                             Cell.make("Paris", 2))
    assert "London" not in fragment._postings


def test_index_schema():
    schema = IndexSchema()
    assert schema.columns_for("T") == set()
    schema.add("T", "a")
    schema.add("T", "b")
    schema.add("U", "a")
    assert schema.columns_for("T") == {"a", "b"}
    # One immutable set per table, not a copy per call (replica writes
    # ask on every request).
    assert schema.columns_for("T") is schema.columns_for("T")
    assert isinstance(schema.columns_for("T"), frozenset)
    assert "c" not in schema.columns_for("T")
    assert schema.columns_for("V") == set()
