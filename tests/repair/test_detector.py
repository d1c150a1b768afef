"""Detector tests: canonical forms, dirty buckets, and quorum verification."""

import pytest

from repro.common import Cell
from repro.errors import QuorumError
from repro.repair import (
    canonical_base_row,
    canonical_view_entry,
    dirty_buckets,
    divergent_base_keys,
    verify_row,
)
from repro.repair.detector import LIVE_MARKER
from repro.repair.scanner import bucket_of
from repro.views import NULL_VIEW_KEY, ViewDefinition, live_entries

from tests.repair.conftest import VIEW, build, populate


def run(cluster, generator):
    process = cluster.env.process(generator)
    return cluster.env.run(until=process)


def silent_base_put(cluster, key, values, ts):
    """Write the base table WITHOUT view propagation (the diverged state
    a crashed coordinator leaves behind)."""
    cells = {column: Cell.make(value, ts) for column, value in values.items()}
    run(cluster, cluster.coordinator(0).put("T", key, cells, 3))


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


def test_canonical_base_row_empty_without_view_key():
    assert canonical_base_row(VIEW, {}) == {}
    assert canonical_base_row(VIEW, {"m": Cell.make("x", 5)}) == {}


def test_canonical_base_row_live_key_and_materialized_cells():
    cells = {"vk": Cell.make("a", 3), "m": Cell.make("x", 5)}
    canonical = canonical_base_row(VIEW, cells)
    assert canonical[LIVE_MARKER] == Cell("a", 3)
    assert canonical["m"] == cells["m"]


def test_canonical_base_row_deleted_key_anchors_at_null():
    cells = {"vk": Cell.make(None, 7)}
    canonical = canonical_base_row(VIEW, cells)
    assert canonical[LIVE_MARKER] == Cell(NULL_VIEW_KEY, 7)


def test_canonical_base_row_predicate_rejection_anchors_at_null():
    view = ViewDefinition("P", "T", "vk", key_predicate=lambda v: v == "in")
    canonical = canonical_base_row(view, {"vk": Cell.make("out", 9)})
    assert canonical[LIVE_MARKER] == Cell(NULL_VIEW_KEY, 9)


def test_canonical_forms_agree_after_clean_propagation():
    """Both sides of the comparison produce identical canonical rows for
    a correctly maintained view — the whole detector hinges on this."""
    cluster = build()
    populate(cluster, 10)
    assert divergent_base_keys(cluster, VIEW) == []
    live = live_entries(cluster, VIEW)
    for key in range(10):
        (entry,) = live[key].values()
        canonical = canonical_view_entry(VIEW, entry)
        assert canonical[LIVE_MARKER] == Cell(f"g{key % 3}", key + 1)


# ---------------------------------------------------------------------------
# Divergence + dirty buckets
# ---------------------------------------------------------------------------


def test_silent_base_write_is_divergent_and_dirty():
    cluster = build()
    populate(cluster, 10)
    silent_base_put(cluster, 4, {"vk": "moved"}, 100)
    assert divergent_base_keys(cluster, VIEW) == [4]
    dirty, _live = dirty_buckets(cluster, VIEW, depth=4)
    # Exactly the divergent row's bucket: every other row's stays clean.
    assert dirty == [bucket_of(4, 4)]


def test_single_divergent_row_isolated_to_one_bucket():
    """Among fifty rows, one silently rewritten row flags its own bucket
    and no other."""
    cluster = build()
    populate(cluster, 50)
    silent_base_put(cluster, 17, {"vk": "DIFFERENT"}, 99)
    dirty, live = dirty_buckets(cluster, VIEW, depth=6)
    assert dirty == [bucket_of(17, 6)]
    assert set(live) == set(range(50))


def test_a_deleted_view_key_dirties_exactly_its_bucket():
    """A tombstone is a difference: a silently deleted view key expects
    the NULL anchor, which the view's live row does not show."""
    cluster = build()
    populate(cluster, 10)
    silent_base_put(cluster, 7, {"vk": None}, 100)
    assert divergent_base_keys(cluster, VIEW) == [7]
    dirty, _live = dirty_buckets(cluster, VIEW, depth=6)
    assert dirty == [bucket_of(7, 6)]


def test_materialized_only_divergence_detected():
    cluster = build()
    populate(cluster, 6)
    silent_base_put(cluster, 2, {"m": "newer"}, 100)
    assert divergent_base_keys(cluster, VIEW) == [2]


def test_dirty_buckets_empty_for_clean_view():
    cluster = build()
    populate(cluster, 10)
    dirty, live = dirty_buckets(cluster, VIEW, depth=4)
    assert dirty == []
    assert set(live) == set(range(10))


# ---------------------------------------------------------------------------
# verify_row (protocol-level confirmation)
# ---------------------------------------------------------------------------


def test_verify_row_clean():
    cluster = build()
    populate(cluster, 4)
    live = live_entries(cluster, VIEW)
    divergence = run(cluster, verify_row(
        cluster.coordinator(0), VIEW, 1, 2, tuple(live[1])))
    assert divergence is None


def test_verify_row_missing_live_row():
    cluster = build()
    populate(cluster, 4)
    silent_base_put(cluster, 1, {"vk": "moved"}, 100)
    live = live_entries(cluster, VIEW)
    divergence = run(cluster, verify_row(
        cluster.coordinator(0), VIEW, 1, 2, tuple(live[1])))
    assert divergence is not None
    # The stale g1 row is a stray AND the moved row is missing; the
    # stray check fires first.
    assert divergence.kind == "stray-live-rows"
    assert divergence.base_key == 1


def test_verify_row_content_mismatch():
    cluster = build()
    populate(cluster, 4)
    silent_base_put(cluster, 1, {"m": "newer"}, 100)
    live = live_entries(cluster, VIEW)
    divergence = run(cluster, verify_row(
        cluster.coordinator(0), VIEW, 1, 2, tuple(live[1])))
    assert divergence is not None
    assert divergence.kind == "content-mismatch"


def test_verify_row_raises_quorum_error_when_replicas_down():
    cluster = build()
    populate(cluster, 4)
    replicas = cluster.replicas_for("T", 1)
    coordinator_id = next(
        node.node_id for node in cluster.nodes
        if node.node_id not in {r.node_id for r in replicas})
    for replica in replicas:
        cluster.fail_node(replica.node_id)
    with pytest.raises(QuorumError):
        run(cluster, verify_row(
            cluster.coordinator(coordinator_id), VIEW, 1, 2, ()))
