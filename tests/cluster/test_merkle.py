"""Tests for the Merkle tree the view scrubber's digests are built on."""

import pytest

from repro.cluster.merkle import MerkleTree, differing_buckets
from repro.common import Cell


def test_depth_validation():
    with pytest.raises(ValueError):
        MerkleTree(-1)
    with pytest.raises(ValueError):
        MerkleTree(21)


def test_empty_trees_are_equal():
    a, b = MerkleTree(4), MerkleTree(4)
    a.seal()
    b.seal()
    assert a.root == b.root
    assert differing_buckets(a, b) == []


def test_same_rows_same_tree():
    rows = {f"k{i}": {"c": Cell.make(i, i)} for i in range(20)}
    a, b = MerkleTree(4), MerkleTree(4)
    for tree in (a, b):
        for key in sorted(rows):
            tree.add_row(key, rows[key])
        tree.seal()
    assert a.root == b.root


def test_single_divergent_row_isolated_to_one_bucket():
    a, b = MerkleTree(6), MerkleTree(6)
    for i in range(50):
        cells = {"c": Cell.make(i, i)}
        a.add_row(f"k{i}", cells)
        b.add_row(f"k{i}", dict(cells) if i != 17
                  else {"c": Cell.make("DIFFERENT", 99)})
    a.seal()
    b.seal()
    buckets = differing_buckets(a, b)
    assert buckets == [MerkleTree.bucket_of("k17", 6)]


def test_tombstones_affect_the_tree():
    a, b = MerkleTree(4), MerkleTree(4)
    a.add_row("k", {"c": Cell.make(None, 5)})
    b.add_row("k", {})
    a.seal()
    b.seal()
    assert a.root != b.root


def test_unequal_depths_rejected():
    a, b = MerkleTree(3), MerkleTree(4)
    a.seal()
    b.seal()
    with pytest.raises(ValueError):
        differing_buckets(a, b)


def test_seal_required_for_root():
    tree = MerkleTree(3)
    with pytest.raises(RuntimeError):
        _ = tree.root
    tree.seal()
    with pytest.raises(RuntimeError):
        tree.add_row("k", {})


def test_bucket_assignment_stable_and_in_range():
    for depth in (1, 4, 8):
        for key in range(100):
            bucket = MerkleTree.bucket_of(key, depth)
            assert 0 <= bucket < (1 << depth)
            assert bucket == MerkleTree.bucket_of(key, depth)
