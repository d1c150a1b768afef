"""Tests for the versioned-view encoding helpers."""

import pytest

from repro.common import Cell
from repro.views import (
    NULL_VIEW_KEY,
    split_wide_row,
    view_column,
    view_timestamp,
    base_timestamp_of,
)
from repro.views.versioned import PHASE_ROW, PHASE_STALE


def test_view_timestamp_roundtrip():
    for base_ts in (0, 1, 17, 123456789):
        for phase in (PHASE_ROW, PHASE_STALE):
            scaled = view_timestamp(base_ts, phase)
            assert base_timestamp_of(scaled) == base_ts


def test_view_timestamp_phase_ordering():
    """The stale phase of an update beats its row phase; any later update
    beats both phases of an earlier one."""
    assert view_timestamp(10, PHASE_STALE) > view_timestamp(10, PHASE_ROW)
    assert view_timestamp(11, PHASE_ROW) > view_timestamp(10, PHASE_STALE)


def test_view_timestamp_rejects_unknown_phase():
    with pytest.raises(ValueError):
        view_timestamp(10, 0)
    with pytest.raises(ValueError):
        view_timestamp(10, 7)


def test_null_timestamp_passthrough():
    assert base_timestamp_of(-1) == -1


def test_view_column_shape():
    assert view_column(42, "Status") == (42, "Status")


def test_split_wide_row_groups_by_base_key():
    cells = {
        (1, "Next"): Cell.make("rliu", view_timestamp(10, PHASE_ROW)),
        (1, "Status"): Cell.make("open", view_timestamp(10, PHASE_ROW)),
        (4, "Next"): Cell.make("rliu", view_timestamp(12, PHASE_ROW)),
    }
    entries = split_wide_row("rliu", cells)
    assert [entry.base_key for entry in entries] == [1, 4]
    first = entries[0]
    assert first.is_live
    assert first.next_key == "rliu"
    assert first.base_ts == 10
    assert first.cells["Status"].value == "open"
    assert set(first.cells) == {"Status"}  # Next is popped into structure


def test_split_wide_row_stale_entry():
    cells = {
        (2, "Next"): Cell.make("cjin", view_timestamp(20, PHASE_STALE)),
    }
    (entry,) = split_wide_row("kmsalem", cells)
    assert not entry.is_live
    assert entry.next_key == "cjin"
    assert entry.base_ts == 20


def test_split_wide_row_null_next():
    cells = {(3, "Status"): Cell.make("open", view_timestamp(5, PHASE_ROW))}
    (entry,) = split_wide_row("x", cells)
    assert not entry.is_live
    assert entry.next_key is None
    assert entry.next_cell.is_null


def test_split_wide_row_ignores_non_tuple_columns():
    cells = {"stray": Cell.make(1, 0),
             (1, "Next"): Cell.make("k", view_timestamp(1, PHASE_ROW))}
    entries = split_wide_row("k", cells)
    assert len(entries) == 1


def test_split_wide_row_tombstoned_next_not_live():
    cells = {(1, "Next"): Cell.make(None, view_timestamp(5, PHASE_ROW))}
    (entry,) = split_wide_row("k", cells)
    assert not entry.is_live
    assert entry.next_key is None


def test_null_view_key_is_not_a_plausible_user_key():
    assert NULL_VIEW_KEY.startswith("\x00")
