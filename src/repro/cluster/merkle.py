"""Merkle trees: summarize a set of rows so equal subsets compare in one hash.

A :class:`MerkleTree` hashes rows into ``2**depth`` leaf buckets of the
key space (by the same stable hash used for placement) and hashes
children pairwise up to a root.  Two trees over the same keys have equal
roots iff (up to hash collision) the rows are identical, and
:func:`differing_buckets` walks down only the unequal subtrees, so
comparing costs in proportion to the divergence, not the table.  The
view scrubber (``repro.repair``) folds the base table's and the view's
canonical rows into one tree each to skip clean token ranges.

The row hash covers every cell **including tombstones** (value,
timestamp, tombstone flag), so row sets that differ only in deletions
still diverge in their trees.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable, List

from repro.common.hashing import hash_key
from repro.common.records import Cell, ColumnName

__all__ = ["MerkleTree", "differing_buckets"]


def _row_digest(cells: Dict[ColumnName, Cell]) -> bytes:
    """A stable digest of one row's full cell state."""
    hasher = hashlib.sha256()
    for column in sorted(cells, key=repr):
        cell = cells[column]
        hasher.update(repr((column, cell.value, cell.timestamp,
                            cell.tombstone)).encode("utf-8"))
    return hasher.digest()


class MerkleTree:
    """A fixed-shape hash tree over ``2**depth`` key-space buckets."""

    def __init__(self, depth: int):
        if not 0 <= depth <= 20:
            raise ValueError("depth must be in [0, 20]")
        self.depth = depth
        self.buckets = 1 << depth
        # levels[0] = leaf hashes, levels[-1] = [root]
        self._leaf_hashers = [hashlib.sha256() for _ in range(self.buckets)]
        self._levels: List[List[bytes]] = []
        self._sealed = False

    @staticmethod
    def bucket_of(key: Hashable, depth: int) -> int:
        """The leaf bucket a key hashes into (stable across nodes)."""
        return hash_key(key, salt="merkle") >> (64 - depth) if depth else 0

    def add_row(self, key: Hashable, cells: Dict[ColumnName, Cell]) -> None:
        """Fold one row into its leaf bucket (rows must be added in a
        consistent order on both sides; callers sort by key repr)."""
        if self._sealed:
            raise RuntimeError("tree already sealed")
        bucket = self.bucket_of(key, self.depth)
        self._leaf_hashers[bucket].update(repr(key).encode("utf-8"))
        self._leaf_hashers[bucket].update(_row_digest(cells))

    def seal(self) -> None:
        """Finalize leaf hashes and build the internal levels."""
        if self._sealed:
            return
        self._sealed = True
        level = [hasher.digest() for hasher in self._leaf_hashers]
        self._levels = [level]
        while len(level) > 1:
            level = [
                hashlib.sha256(level[i] + level[i + 1]).digest()
                for i in range(0, len(level), 2)
            ]
            self._levels.append(level)

    @property
    def root(self) -> bytes:
        """The root hash (tree must be sealed)."""
        if not self._sealed:
            raise RuntimeError("seal() the tree first")
        return self._levels[-1][0]

    def leaf(self, bucket: int) -> bytes:
        """One leaf bucket's hash."""
        if not self._sealed:
            raise RuntimeError("seal() the tree first")
        return self._levels[0][bucket]


def differing_buckets(a: MerkleTree, b: MerkleTree) -> List[int]:
    """Leaf buckets whose hashes differ, found by top-down comparison.

    Walks the two trees from the root, descending only into unequal
    subtrees — the work is proportional to the divergence.
    """
    if a.depth != b.depth:
        raise ValueError("trees must have equal depth")
    if a.root == b.root:
        return []
    differing: List[int] = []

    def walk(level: int, index: int) -> None:
        if a._levels[level][index] == b._levels[level][index]:
            return
        if level == 0:
            differing.append(index)
            return
        walk(level - 1, 2 * index)
        walk(level - 1, 2 * index + 1)

    walk(len(a._levels) - 1, 0)
    return differing
