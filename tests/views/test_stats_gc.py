"""Tests for view statistics and stale-row garbage collection."""

import pytest

from repro.cluster import Cluster
from repro.views import (
    NULL_VIEW_KEY,
    StaleRowCollector,
    ViewDefinition,
    check_view,
    collect_entries,
    collect_stale_rows,
    compute_stats,
)

from tests.views.conftest import make_config

VIEW = ViewDefinition("V", "T", "vk", ("m",))

# A cutoff far above any timestamp the tests generate.
FUTURE_CUTOFF = 10 ** 18


def build():
    cluster = Cluster(make_config())
    cluster.create_table("T")
    cluster.create_view(VIEW)
    return cluster, cluster.sync_client()


def run_gc(cluster, cutoff=FUTURE_CUTOFF):
    process = cluster.env.process(
        collect_stale_rows(cluster, VIEW, cutoff))
    report = cluster.env.run(until=process)
    cluster.run_until_idle()
    return report


# ---------------------------------------------------------------------------
# compute_stats
# ---------------------------------------------------------------------------


def test_stats_empty_view():
    cluster, _client = build()
    stats = compute_stats(cluster, VIEW)
    assert stats.base_rows == 0
    assert stats.total_rows == 0
    assert stats.stale_fraction == 0.0
    assert stats.max_chain_length == 0


def test_stats_counts_live_and_stale():
    cluster, client = build()
    client.put("T", "k", {"vk": "a", "m": 1})
    client.put("T", "k", {"vk": "b"})
    client.put("T", "k", {"vk": "c"})
    client.settle()
    stats = compute_stats(cluster, VIEW)
    assert stats.base_rows == 1
    assert stats.live_rows == 1
    # Stale: a, b, and the NULL anchor.
    assert stats.stale_rows == 3
    assert stats.anchor_rows == 1
    assert stats.deleted_rows == 0
    assert 0 < stats.stale_fraction < 1
    assert stats.max_chain_length >= 1


def test_stats_deleted_row_counted():
    cluster, client = build()
    client.put("T", "k", {"vk": "a"})
    client.put("T", "k", {"vk": None})
    client.settle()
    stats = compute_stats(cluster, VIEW)
    assert stats.deleted_rows == 1


def test_stats_describe_mentions_name():
    cluster, client = build()
    client.put("T", "k", {"vk": "a"})
    client.settle()
    assert "'V'" in compute_stats(cluster, VIEW).describe()


def test_chain_lengths_grow_with_rekeying():
    cluster, client = build()
    for i in range(8):
        client.put("T", "k", {"vk": f"g{i}"})
    client.settle()
    stats = compute_stats(cluster, VIEW)
    assert stats.max_chain_length >= 3


# ---------------------------------------------------------------------------
# collect_stale_rows
# ---------------------------------------------------------------------------


def test_gc_prunes_old_stale_rows():
    cluster, client = build()
    for i in range(6):
        client.put("T", "k", {"vk": f"g{i}", "m": i})
    client.settle()
    before = compute_stats(cluster, VIEW)
    assert before.stale_rows == 6  # g0..g4 + anchor

    report = run_gc(cluster)
    assert report.rows_pruned == 5
    # Pruning cascades from the oldest row; only the anchor is repointed.
    assert report.rows_compacted <= 1
    after = compute_stats(cluster, VIEW)
    # Only the anchor survives as a stale row (repointed, never pruned).
    assert after.stale_rows == 1
    assert after.anchor_rows == 1
    assert after.live_rows == 1
    assert collect_entries(cluster, VIEW)["k"][NULL_VIEW_KEY].next_key == "g5"
    assert check_view(cluster, VIEW) == []


def test_gc_preserves_view_contents():
    cluster, client = build()
    for i in range(5):
        client.put("T", "k", {"vk": f"g{i}", "m": f"payload-{i}"})
    client.settle()
    run_gc(cluster)
    (row,) = client.get_view("V", "g4", ["m"])
    assert row["m"] == "payload-4"
    for i in range(4):
        assert client.get_view("V", f"g{i}", ["m"]) == []


def test_gc_compacts_anchor_pointer():
    cluster, client = build()
    for i in range(5):
        client.put("T", "k", {"vk": f"g{i}"})
    client.settle()
    run_gc(cluster)
    entries = collect_entries(cluster, VIEW)["k"]
    anchor = entries[NULL_VIEW_KEY]
    assert anchor.next_key == "g4"  # points straight at the live row


def test_gc_respects_cutoff():
    cluster, client = build()
    client.put("T", "k", {"vk": "a"})
    client.put("T", "k", {"vk": "b"})
    client.settle()
    # Cutoff of 0: nothing is old enough to touch.
    report = run_gc(cluster, cutoff=0)
    assert report.rows_pruned == 0
    assert report.rows_compacted == 0
    assert report.skipped_recent >= 1
    stats = compute_stats(cluster, VIEW)
    assert stats.stale_rows == 2  # a + anchor untouched


def test_gc_never_touches_live_rows():
    cluster, client = build()
    client.put("T", "k1", {"vk": "solo", "m": "x"})
    client.settle()
    report = run_gc(cluster)
    assert report.rows_pruned == 0
    (row,) = client.get_view("V", "solo", ["m"])
    assert row["m"] == "x"


def test_gc_is_idempotent():
    cluster, client = build()
    for i in range(4):
        client.put("T", "k", {"vk": f"g{i}"})
    client.settle()
    first = run_gc(cluster)
    second = run_gc(cluster)
    assert first.rows_pruned >= 1
    assert second.rows_pruned == 0
    assert check_view(cluster, VIEW) == []


def test_rekeying_after_gc_still_works():
    """A pruned key can be written again later (key reuse beats the
    prune tombstones)."""
    cluster, client = build()
    client.put("T", "k", {"vk": "a", "m": "x"})
    client.put("T", "k", {"vk": "b"})
    client.settle()
    run_gc(cluster)
    client.put("T", "k", {"vk": "a"})  # reuse the pruned key
    client.settle()
    (row,) = client.get_view("V", "a", ["m"])
    assert row["m"] == "x"
    assert check_view(cluster, VIEW) == []


def test_gc_many_base_rows():
    cluster, client = build()
    for key in range(10):
        client.put("T", key, {"vk": "g0", "m": key})
        client.put("T", key, {"vk": "g1"})
    client.settle()
    report = run_gc(cluster)
    assert report.base_rows_examined == 10
    assert report.rows_pruned == 10  # each row's g0 stale entry
    rows = client.get_view("V", "g1", ["m"])
    assert len(rows) == 10
    assert check_view(cluster, VIEW) == []


def test_gc_unknown_view_rejected():
    cluster, _client = build()
    with pytest.raises(ValueError):
        cluster.env.process(collect_stale_rows(
            cluster, ViewDefinition("NOPE", "T", "vk"), FUTURE_CUTOFF))
        cluster.run_until_idle()


# ---------------------------------------------------------------------------
# StaleRowCollector service
# ---------------------------------------------------------------------------


def test_collector_service_runs_periodically():
    cluster, client = build()
    for i in range(5):
        client.put("T", "k", {"vk": f"g{i}"})
    client.settle()
    collector = StaleRowCollector(cluster, ["V"], interval=50.0,
                                  horizon_ms=10.0)
    cluster.run(until=cluster.env.now + 200.0)
    collector.stop()
    cluster.run(until=cluster.env.now + 60.0)
    assert collector.passes >= 2
    assert collector.total.rows_pruned >= 1
    assert check_view(cluster, VIEW) == []


def test_collector_horizon_protects_recent_rows():
    cluster, client = build()
    client.put("T", "k", {"vk": "a"})
    client.put("T", "k", {"vk": "b"})
    client.settle()
    collector = StaleRowCollector(cluster, ["V"], interval=10.0,
                                  horizon_ms=10_000.0)
    cluster.run(until=cluster.env.now + 50.0)
    collector.stop()
    cluster.run(until=cluster.env.now + 20.0)
    assert collector.total.rows_pruned == 0
    stats = compute_stats(cluster, VIEW)
    assert stats.stale_rows == 2


def test_collector_validation():
    cluster, _client = build()
    with pytest.raises(ValueError):
        StaleRowCollector(cluster, ["V"], interval=0, horizon_ms=1.0)
    with pytest.raises(ValueError):
        StaleRowCollector(cluster, ["V"], interval=1.0, horizon_ms=-1.0)


def test_gc_recompacts_after_live_key_moves_again():
    """Regression: the anchor repoint must stay repeatable.

    The anchor gets repointed at the live row once; when a later update
    moves the live key, the next collection pass must be able to
    repoint it at the *new* live row.  The repoint's timestamp used to
    derive from the anchor's own (frozen) base timestamp, so the second
    one could never win LWW and the sweep's fixpoint loop re-issued the
    same doomed put forever.
    """
    cluster, client = build()
    client.put("T", "k", {"vk": "a"}, timestamp=1_000_000)
    client.settle()
    client.put("T", "k", {"vk": "b"}, timestamp=2_000_000)
    client.settle()
    run_gc(cluster)  # anchor compacted toward "b" (one-shot before fix)
    client.put("T", "k", {"vk": "b"}, timestamp=3_000_000)  # refresh
    client.settle()
    client.put("T", "k", {"vk": "a"}, timestamp=4_000_000)
    client.settle()
    report = run_gc(cluster)  # used to loop forever re-compacting
    assert check_view(cluster, VIEW) == []
    assert report.rows_compacted >= 1
    rows = [r for r in client.get_view("V", "a", ["m"], r=2)
            if r.base_key == "k"]
    assert len(rows) == 1
    # A follow-up pass finds a stable chain: nothing left to do.
    followup = run_gc(cluster)
    assert followup.rows_compacted == 0
    assert followup.rows_pruned == 0
