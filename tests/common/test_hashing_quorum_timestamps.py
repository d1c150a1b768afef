"""Tests for the token ring, quorum math, and timestamp oracle."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import (
    TimestampOracle,
    TokenRing,
    hash_key,
    majority,
    validate_quorum,
)
from repro.errors import InvalidQuorumError


# ---------------------------------------------------------------------------
# hash_key / TokenRing
# ---------------------------------------------------------------------------


def test_hash_key_stable():
    assert hash_key("abc") == hash_key("abc")
    assert hash_key("abc") != hash_key("abd")


def test_hash_key_distinguishes_types():
    assert hash_key(1) != hash_key("1")


def test_hash_key_salt():
    assert hash_key("k", salt="a") != hash_key("k", salt="b")


def test_ring_requires_members():
    with pytest.raises(ValueError):
        TokenRing([])


def test_ring_rejects_bad_vnodes():
    with pytest.raises(ValueError):
        TokenRing(["a"], virtual_nodes=0)


def test_preference_list_distinct_members():
    ring = TokenRing(["n0", "n1", "n2", "n3"])
    replicas = ring.preference_list("some-key", 3)
    assert len(replicas) == 3
    assert len(set(replicas)) == 3
    assert set(replicas) <= {"n0", "n1", "n2", "n3"}


def test_preference_list_deterministic():
    ring_a = TokenRing(["n0", "n1", "n2", "n3"])
    ring_b = TokenRing(["n0", "n1", "n2", "n3"])
    for key in range(50):
        assert ring_a.preference_list(key, 3) == ring_b.preference_list(key, 3)


def test_preference_list_count_bounds():
    ring = TokenRing(["n0", "n1"])
    with pytest.raises(ValueError):
        ring.preference_list("k", 0)
    with pytest.raises(ValueError):
        ring.preference_list("k", 3)


def test_preference_list_full_membership():
    members = ["n0", "n1", "n2", "n3", "n4"]
    ring = TokenRing(members)
    assert sorted(ring.preference_list("k", 5)) == members


def test_primary_is_first_of_preference_list():
    ring = TokenRing(["n0", "n1", "n2"])
    for key in range(20):
        assert ring.primary(key) == ring.preference_list(key, 3)[0]


def test_ring_balances_keys_roughly():
    """With enough virtual nodes, primary ownership is roughly uniform."""
    members = [f"n{i}" for i in range(4)]
    ring = TokenRing(members, virtual_nodes=64)
    counts = {m: 0 for m in members}
    total = 4000
    for key in range(total):
        counts[ring.primary(key)] += 1
    for member in members:
        share = counts[member] / total
        assert 0.10 < share < 0.45, f"{member} owns {share:.0%}"


@given(st.integers(), st.integers(min_value=1, max_value=4))
def test_preference_list_prefix_property(key, count):
    """preference_list(k, i) is a prefix of preference_list(k, j) for i<j."""
    ring = TokenRing(["n0", "n1", "n2", "n3"])
    full = ring.preference_list(key, 4)
    assert ring.preference_list(key, count) == full[:count]


# ---------------------------------------------------------------------------
# Quorums
# ---------------------------------------------------------------------------


def test_majority_values():
    assert majority(1) == 1
    assert majority(2) == 2
    assert majority(3) == 2
    assert majority(4) == 3
    assert majority(5) == 3


def test_majority_rejects_zero():
    with pytest.raises(InvalidQuorumError):
        majority(0)


def test_validate_quorum_bounds():
    assert validate_quorum(1, 3) == 1
    assert validate_quorum(3, 3) == 3
    with pytest.raises(InvalidQuorumError):
        validate_quorum(0, 3)
    with pytest.raises(InvalidQuorumError):
        validate_quorum(4, 3)


@given(st.integers(min_value=1, max_value=99))
def test_two_majorities_intersect(n):
    """R = W = majority(n) guarantees R + W > N (quorum consensus)."""
    assert majority(n) + majority(n) > n


# ---------------------------------------------------------------------------
# TimestampOracle
# ---------------------------------------------------------------------------


def test_oracle_monotonic_at_fixed_time():
    oracle = TimestampOracle(client_id=1, now_fn=lambda: 5.0)
    timestamps = [oracle.next() for _ in range(100)]
    assert timestamps == sorted(timestamps)
    assert len(set(timestamps)) == 100


def test_oracle_distinct_clients_never_collide():
    clock = [0.0]
    a = TimestampOracle(client_id=1, now_fn=lambda: clock[0])
    b = TimestampOracle(client_id=2, now_fn=lambda: clock[0])
    seen = set()
    for _ in range(50):
        seen.add(a.next())
        seen.add(b.next())
        clock[0] += 0.001
    assert len(seen) == 100


def test_oracle_tracks_clock():
    clock = [0.0]
    oracle = TimestampOracle(client_id=0, now_fn=lambda: clock[0])
    t1 = oracle.next()
    clock[0] = 1000.0
    t2 = oracle.next()
    assert t2 > t1


def test_oracle_client_id_roundtrip():
    """Two clients drawing at the same instant are told apart by their
    ids alone: the timestamps differ by exactly the id difference."""
    first = TimestampOracle(client_id=0, now_fn=lambda: 1.0).next()
    other = TimestampOracle(client_id=37, now_fn=lambda: 1.0).next()
    assert other - first == 37


def test_oracle_rejects_bad_client_id():
    with pytest.raises(ValueError):
        TimestampOracle(client_id=-1, now_fn=lambda: 0.0)
    with pytest.raises(ValueError):
        TimestampOracle(client_id=1 << 20, now_fn=lambda: 0.0)
