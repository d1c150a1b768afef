"""Unit tests for the budgeted token-range scanner."""

import pytest

from repro.repair import TokenRangeScanner
from repro.repair.scanner import bucket_of

from tests.repair.conftest import build, populate

DEPTH = 3  # 8 buckets


def make_scanner(rows=24):
    cluster = build()
    populate(cluster, rows)
    return cluster, TokenRangeScanner(cluster, "T", DEPTH)


def test_depth_validated():
    cluster = build()
    with pytest.raises(ValueError):
        TokenRangeScanner(cluster, "T", -1)
    with pytest.raises(ValueError):
        TokenRangeScanner(cluster, "T", 21)


def test_snapshot_groups_keys_by_merkle_bucket():
    _cluster, scanner = make_scanner()
    snapshot = scanner.snapshot()
    seen = set()
    for bucket, keys in snapshot.items():
        assert keys == sorted(keys, key=repr)
        for key in keys:
            assert bucket_of(key, DEPTH) == bucket
            seen.add(key)
    assert seen == set(range(24))


def test_bucket_assignment_stable_and_in_range():
    for depth in (1, 4, 8):
        for key in range(100):
            bucket = bucket_of(key, depth)
            assert 0 <= bucket < (1 << depth)
            assert bucket == bucket_of(key, depth)
    assert {bucket_of(key, 0) for key in range(10)} == {0}


def test_snapshot_includes_extra_keys():
    _cluster, scanner = make_scanner(rows=4)
    snapshot = scanner.snapshot(extra_keys=["ghost"])
    assert any("ghost" in keys for keys in snapshot.values())


def test_snapshot_skips_down_nodes():
    cluster, scanner = make_scanner(rows=8)
    for node in cluster.nodes:
        cluster.fail_node(node.node_id)
    assert scanner.snapshot() == {}


def test_plan_consumes_all_wanted_buckets_within_budget():
    _cluster, scanner = make_scanner()
    snapshot = scanner.snapshot()
    plan = scanner.plan(snapshot.keys(), 1000)
    assert plan.covered_all
    assert {key for _bucket, key in plan.rows} == set(range(24))
    # Untouched buckets are simply not visited.
    some_bucket = next(iter(snapshot))
    only = scanner.plan([some_bucket], 1000)
    assert {b for b, _k in only.rows} == {some_bucket}


def test_plan_budget_truncates_and_cursor_resumes():
    """The scrubber's shape: buckets leave the dirty set once their keys
    are all scanned; the cursor makes every key get scanned eventually."""
    _cluster, scanner = make_scanner()
    snapshot = scanner.snapshot()
    total = sum(len(keys) for keys in snapshot.values())
    budget = total // 3
    remaining = {bucket: set(keys) for bucket, keys in snapshot.items()}
    rounds = 0
    resume = None
    while any(remaining.values()):
        wanted = [bucket for bucket, keys in remaining.items() if keys]
        plan = scanner.plan(wanted, budget, snapshot)
        assert plan.rows, "a round with dirty buckets must make progress"
        if resume is not None:
            # The cursor parked where the last budget ran out: this
            # round starts at the first key that budget cut off.
            assert plan.rows[0] == resume
        # Every wanted key in ring order from this round's first bucket.
        ring = [(bucket, key)
                for step in range(scanner.buckets)
                for bucket in [(plan.rows[0][0] + step) % scanner.buckets]
                if bucket in wanted
                for key in sorted(remaining[bucket], key=repr)]
        assert plan.rows == ring[:len(plan.rows)]
        resume = None if plan.covered_all else ring[len(plan.rows)]
        for bucket, key in plan.rows:
            remaining[bucket].discard(key)
        rounds += 1
        assert rounds < 30
    assert rounds >= 3  # the budget genuinely split the scan


def test_single_bucket_larger_than_budget_drains_across_rounds():
    cluster = build()
    populate(cluster, 12)
    scanner = TokenRangeScanner(cluster, "T", 0)  # one bucket holds all
    snapshot = scanner.snapshot()
    seen = []
    for _round in range(3):
        plan = scanner.plan([0], 4, snapshot)
        seen.extend(key for _bucket, key in plan.rows)
    assert len(seen) == 12
    assert set(seen) == set(range(12))  # no prefix re-scanned
    assert plan.covered_all


def test_plan_zero_budget_makes_no_progress_but_does_not_fail():
    _cluster, scanner = make_scanner()
    snapshot = scanner.snapshot()
    plan = scanner.plan(snapshot.keys(), 0, snapshot)
    assert plan.rows == []
    assert not plan.covered_all


def test_plan_rejects_negative_budget():
    _cluster, scanner = make_scanner(rows=2)
    with pytest.raises(ValueError):
        scanner.plan([0], -1)


def test_plan_empty_wanted_is_trivially_complete():
    _cluster, scanner = make_scanner(rows=2)
    plan = scanner.plan([], 10)
    assert plan.rows == [] and plan.covered_all
