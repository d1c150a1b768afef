"""Tests that the invariant checker actually detects corrupted states.

A checker that never fires is worthless; these tests hand-corrupt view
storage and assert each violation class is reported.
"""

from repro.cluster import Cluster
from repro.common import Cell
from repro.views import (
    BaseUpdate,
    NULL_VIEW_KEY,
    ReferenceViewModel,
    ViewDefinition,
    check_view,
    merged_view_state,
)
from repro.views.invariants import entries_for_base_key, merged_view_rows
from repro.views.versioned import PHASE_LIVE, PHASE_STALE, view_timestamp

from tests.views.conftest import make_config

VIEW = ViewDefinition("V", "T", "vk", ("m",))


def build():
    cluster = Cluster(make_config())
    cluster.create_table("T")
    cluster.create_view(VIEW)
    return cluster, cluster.sync_client()


def plant(cluster, view_key, cells):
    """Write cells directly into every replica of a view row."""
    for replica in cluster.replicas_for("V", view_key):
        replica.engine.apply("V", view_key, cells)


def test_clean_state_has_no_violations():
    cluster, client = build()
    client.put("T", "k", {"vk": "a", "m": 1})
    client.settle()
    assert check_view(cluster, VIEW) == []


def test_detects_two_live_rows():
    cluster, _client = build()
    plant(cluster, "a", {("k", "Next"): Cell("a", view_timestamp(10, PHASE_LIVE))})
    plant(cluster, "b", {("k", "Next"): Cell("b", view_timestamp(20, PHASE_LIVE))})
    violations = check_view(cluster, VIEW)
    assert any("exactly one live row" in v for v in violations)


def test_detects_zero_live_rows():
    cluster, _client = build()
    plant(cluster, "a", {("k", "Next"): Cell("b", view_timestamp(10, PHASE_STALE))})
    plant(cluster, "b", {("k", "Next"): Cell("a", view_timestamp(20, PHASE_STALE))})
    violations = check_view(cluster, VIEW)
    assert any("exactly one live row" in v for v in violations)


def test_detects_dangling_pointer():
    cluster, _client = build()
    plant(cluster, "live", {("k", "Next"): Cell("live", view_timestamp(30, PHASE_LIVE))})
    plant(cluster, "stale", {("k", "Next"): Cell("missing", view_timestamp(10, PHASE_STALE))})
    violations = check_view(cluster, VIEW)
    assert any("missing row" in v for v in violations)


def test_detects_an_unfinished_cut_move():
    """A stale pointer to a row that holds only an older entry (the
    move's line 8 landed, its new row did not) is a cut move: a walk
    must not follow it, and after quiescence none may be left."""
    cluster, _client = build()
    plant(cluster, "live", {("k", "Next"): Cell("live", view_timestamp(30, PHASE_LIVE))})
    plant(cluster, "x", {("k", "Next"): Cell("y", view_timestamp(20, PHASE_STALE))})
    plant(cluster, "y", {("k", "Next"): Cell("live", view_timestamp(10, PHASE_STALE))})
    violations = check_view(cluster, VIEW)
    assert violations == ["base key 'k': cut move 'x' → 'y' left unfinished"]


def test_detects_wrong_live_key_against_oracle():
    cluster, client = build()
    ts = client.put("T", "k", {"vk": "a"})
    client.settle()
    reference = ReferenceViewModel(VIEW)
    reference.propagate(BaseUpdate("k", "vk", "WRONG", ts))
    violations = check_view(cluster, VIEW, reference)
    assert any("oracle expects" in v for v in violations)


def test_detects_missing_required_stale_row():
    cluster, client = build()
    ts1 = client.put("T", "k", {"vk": "a"})
    ts2 = client.put("T", "k", {"vk": "b"})
    client.settle()
    reference = ReferenceViewModel(VIEW)
    reference.propagate(BaseUpdate("k", "vk", "a", ts1))
    reference.propagate(BaseUpdate("k", "vk", "b", ts2))
    # Claim a third version existed: the checker should flag its absence.
    reference.propagate(BaseUpdate("k", "vk", "ghost", (ts1 + ts2) // 2))
    violations = check_view(cluster, VIEW, reference)
    assert violations  # ghost is expected as a stale row but is absent


def test_detects_wrong_materialized_value():
    cluster, client = build()
    ts = client.put("T", "k", {"vk": "a", "m": "actual"})
    client.settle()
    reference = ReferenceViewModel(VIEW)
    reference.propagate(BaseUpdate("k", "vk", "a", ts))
    reference.propagate(BaseUpdate("k", "m", "expected-different", ts + 1))
    violations = check_view(cluster, VIEW, reference)
    assert any("'m'" in v for v in violations)


def test_detects_missing_base_row_entirely():
    cluster, _client = build()
    reference = ReferenceViewModel(VIEW)
    reference.propagate(BaseUpdate("never-written", "vk", "a", 10))
    violations = check_view(cluster, VIEW, reference)
    assert any("view has none" in v for v in violations)


# ---------------------------------------------------------------------------
# Introspection helpers
# ---------------------------------------------------------------------------


def test_merged_view_state_covers_all_rows():
    cluster, client = build()
    client.put("T", "k1", {"vk": "a"})
    client.put("T", "k2", {"vk": "b"})
    client.settle()
    state = merged_view_state(cluster, VIEW)
    assert "a" in state and "b" in state
    assert NULL_VIEW_KEY in state  # the anchors


def test_merged_view_rows_targets_specific_keys():
    cluster, client = build()
    client.put("T", "k1", {"vk": "a"})
    client.put("T", "k2", {"vk": "b"})
    client.settle()
    rows = merged_view_rows(cluster, VIEW, ["a"])
    assert list(rows) == ["a"]


def test_entries_for_base_key_filters():
    cluster, client = build()
    client.put("T", "k1", {"vk": "shared"})
    client.put("T", "k2", {"vk": "shared"})
    client.settle()
    entries = entries_for_base_key(cluster, VIEW,
                                   ["shared", NULL_VIEW_KEY], "k1")
    assert set(entries) == {"shared", NULL_VIEW_KEY}
    assert all(e.base_key == "k1" for e in entries.values())
