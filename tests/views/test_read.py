"""Tests for the view read path (Algorithm 4) details."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.common.records import NULL_TIMESTAMP, Cell
from repro.errors import ViewError
from repro.views import NULL_VIEW_KEY, ViewDefinition, split_wide_row
from repro.views.definition import BASE_KEY_COLUMN, NEXT_COLUMN
from repro.views.read import ViewResult, live_results
from repro.views.versioned import base_timestamp_of

from tests.views.conftest import make_config

VIEW = ViewDefinition("V", "T", "vk", ("m", "n"))


def build():
    cluster = Cluster(make_config())
    cluster.create_table("T")
    cluster.create_view(VIEW)
    return cluster, cluster.sync_client()


def test_view_result_accessors():
    result = ViewResult("k", {"m": ("x", 10), "n": (None, -1)})
    assert result["m"] == "x"
    assert result["n"] is None
    assert result.values["m"] == ("x", 10)
    assert result.base_key == "k"


def test_empty_result_for_unknown_view_key():
    _cluster, client = build()
    assert client.get_view("V", "nothing-here", ["m"]) == []


def test_results_sorted_by_base_key():
    _cluster, client = build()
    for key in ("zz", "aa", "mm"):
        client.put("T", key, {"vk": "shared"})
    client.settle()
    rows = client.get_view("V", "shared", ["B"])
    assert [row.base_key for row in rows] == ["aa", "mm", "zz"]


def test_unset_columns_read_as_null():
    _cluster, client = build()
    client.put("T", "k", {"vk": "a", "m": "set"})
    client.settle()
    (row,) = client.get_view("V", "a", ["m", "n"])
    assert row["m"] == "set"
    assert row.values["n"] == (None, -1)


def test_tombstoned_materialized_column_reads_null_with_timestamp():
    _cluster, client = build()
    client.put("T", "k", {"vk": "a", "m": "x"})
    ts = client.put("T", "k", {"m": None})
    client.settle()
    (row,) = client.get_view("V", "a", ["m"])
    assert row.values["m"] == (None, ts)


def test_b_column_returns_base_key_and_key_timestamp():
    _cluster, client = build()
    ts = client.put("T", "k77", {"vk": "a"})
    client.settle()
    (row,) = client.get_view("V", "a", ["B"])
    assert row.values["B"] == ("k77", ts)


def test_timestamps_are_in_base_units():
    """Clients must never see the internal scaled timestamps."""
    _cluster, client = build()
    ts = client.put("T", "k", {"vk": "a", "m": "x"})
    client.settle()
    (row,) = client.get_view("V", "a", ["m", "B"])
    assert row.values["m"][1] == ts
    assert row.values["B"][1] == ts


def test_null_view_key_is_unreadable():
    cluster, client = build()
    with pytest.raises(ViewError):
        client.get_view("V", NULL_VIEW_KEY, ["m"])


def test_stale_rows_invisible():
    _cluster, client = build()
    client.put("T", "k", {"vk": "a", "m": "x"})
    client.settle()
    client.put("T", "k", {"vk": "b"})
    client.settle()
    assert client.get_view("V", "a", ["m"]) == []
    (row,) = client.get_view("V", "b", ["m"])
    assert row["m"] == "x"


def test_view_get_with_full_quorum():
    _cluster, client = build()
    client.put("T", "k", {"vk": "a", "m": "x"}, w=3)
    client.settle()
    (row,) = client.get_view("V", "a", ["m"], r=3)
    assert row["m"] == "x"


READS = {
    "get": ("T", "k", lambda client: client.get("T", "k", ["m"])),
    "get_view": ("V", "a", lambda client: client.get_view("V", "a", ["m"])),
    "get_view_fresh": ("V", "a", lambda client: client.get_view_fresh(
        "V", "a", ["m"], max_staleness_ms=None)),
}


@pytest.mark.parametrize("holds_replica", [True, False])
@pytest.mark.parametrize("read", sorted(READS))
def test_a_view_get_is_charged_like_a_base_get(read, holds_replica):
    """One client request, one coordinator charge: on an idle cluster an
    R = 1 read adds ``service.coordinator`` to its coordinator's CPU,
    plus the replica read's cost when it reads its own copy — a base
    Get (columns asked) and a view Get (row width) alike."""
    cluster, writer = build()
    writer.put("T", "k", {"vk": "a", "m": "x"}, w=3)
    writer.settle()
    table, key, send = READS[read]
    holders = {node.node_id for node in cluster.replicas_for(table, key)}
    (node_id,) = ([min(holders)] if holds_replica
                  else set(range(len(cluster.nodes))) - holders)
    node = cluster.node(node_id)
    service = cluster.config.service
    expected = service.coordinator
    if holds_replica:
        expected += service.read_cost(
            1 if table == "T" else node.engine.row_width(table, key))
    before = node.busy_time
    assert send(cluster.sync_client(node_id))
    assert node.busy_time - before == pytest.approx(expected)


def test_many_base_rows_under_one_view_key():
    _cluster, client = build()
    for i in range(25):
        client.put("T", i, {"vk": "busy", "m": i * 2})
    client.settle()
    rows = client.get_view("V", "busy", ["m"])
    assert len(rows) == 25
    assert sorted(row["m"] for row in rows) == [i * 2 for i in range(25)]


# -- the live-entry decode against the split-every-entry one ---------------


def decode_by_splitting(view_key, cells, columns):
    """Algorithm 4's decode as it was before :func:`live_results`: split
    the row into every entry, keep the live ones.  The reference the
    decode is compared with."""
    results = []
    for entry in split_wide_row(view_key, cells):
        if not entry.is_live:
            continue
        values = {}
        for column in columns:
            if column == BASE_KEY_COLUMN:
                values[column] = (entry.base_key, entry.base_ts)
                continue
            cell = entry.cells.get(column)
            if cell is None or cell.timestamp == NULL_TIMESTAMP:
                values[column] = (None, NULL_TIMESTAMP)
            elif cell.is_null:
                values[column] = (None, base_timestamp_of(cell.timestamp))
            else:
                values[column] = (cell.value,
                                  base_timestamp_of(cell.timestamp))
        results.append(ViewResult(entry.base_key, values))
    return results


ROW_KEY = "here"

# Ints, strings and tuples: mixed types, no two equal keys of different
# types (``1`` and ``1.0`` would be one dict key under two reprs).
base_keys = st.one_of(st.integers(-30, 30), st.text(max_size=3),
                      st.tuples(st.integers(0, 3), st.text(max_size=2)))
stamps = st.integers(0, 400)
# What a column of one entry may hold: never written (absent), the
# never-written cell a merge yields, a tombstone, or a value.
column_cells = st.one_of(
    st.none(), st.just(Cell.null()),
    stamps.map(lambda ts: Cell.make(None, ts)),
    st.tuples(st.text(max_size=2), stamps).map(lambda vt: Cell.make(*vt)))
# A live pointer's stamp runs over every phase.
next_cells = st.one_of(
    st.none(),                                                 # no pointer
    stamps.map(lambda ts: Cell.make(ROW_KEY, ts)),             # live
    st.tuples(st.sampled_from(["elsewhere", NULL_VIEW_KEY]),   # stale
              stamps).map(lambda vt: Cell.make(*vt)),
    stamps.map(lambda ts: Cell.make(None, ts)))                # tombstoned
entries = st.fixed_dictionaries({
    NEXT_COLUMN: next_cells, "m": column_cells, "n": column_cells})


@st.composite
def wide_rows(draw):
    keys = draw(st.lists(base_keys, max_size=12, unique=True))
    named = []
    for base_key in keys:
        entry = draw(entries)
        named += [((base_key, column), cell)
                  for column, cell in entry.items() if cell is not None]
    # Names that are no entry's cell at all.
    named += draw(st.lists(st.sampled_from([
        ("loose", Cell.make("x", 3)), (("a", "b", "c"), Cell.make("y", 4))]),
        max_size=2, unique=True))
    return dict(draw(st.permutations(named)))


@settings(max_examples=300, deadline=None)
@given(cells=wide_rows(),
       columns=st.lists(st.sampled_from(
           ["m", "n", "never", BASE_KEY_COLUMN, NEXT_COLUMN]),
           max_size=6))
def test_live_entry_decode_matches_splitting_every_entry(cells, columns):
    columns = tuple(columns)
    assert (live_results(ROW_KEY, cells, columns)
            == decode_by_splitting(ROW_KEY, cells, columns))


def test_live_entry_decode_returns_live_rows_in_repr_order():
    cells = {
        ("b", NEXT_COLUMN): Cell.make(ROW_KEY, 16),
        ("b", "m"): Cell.make("bee", 16),
        (10, NEXT_COLUMN): Cell.make(ROW_KEY, 24),
        (2, NEXT_COLUMN): Cell.make("elsewhere", 8),    # stale
        (2, "m"): Cell.make("stale", 8),
        (3, NEXT_COLUMN): Cell.make(ROW_KEY, 42),
        (3, "m"): Cell.make(None, 40),
    }
    rows = live_results(ROW_KEY, cells, ("m", BASE_KEY_COLUMN))
    # By repr: "'b'" < "10" < "3".
    assert rows == [
        ViewResult("b", {"m": ("bee", 2), "B": ("b", 2)}),
        ViewResult(10, {"m": (None, NULL_TIMESTAMP), "B": (10, 3)}),
        ViewResult(3, {"m": (None, 5), "B": (3, 5)}),
    ]
    # A self-pointer is live at any phase: there is no Init mark.
    cells[("b", NEXT_COLUMN)] = Cell.make(ROW_KEY, 17)
    assert [row.base_key for row in live_results(ROW_KEY, cells, ("m",))
            ] == ["b", 10, 3]
