"""Merkle-tree anti-entropy: repair that transfers only divergence.

``repro.cluster.antientropy``'s full sweep reads every row from every
replica — simple and correct, but proportional to table size even when
replicas agree.  Real systems (Cassandra's ``nodetool repair``) instead
exchange *Merkle trees*: each replica summarizes its data as a hash
tree; subtrees with equal hashes are provably identical (up to hash
collision) and are skipped, so network cost scales with the amount of
divergence, not the table size.

This module implements that protocol over the simulated cluster:

1. Each replica builds a :class:`MerkleTree` over its local rows —
   leaves are hash buckets of the key space (by the same stable hash
   used for placement), internal nodes hash their children.
2. For every replica pair, tree comparison walks down from the root and
   collects the key ranges (leaf buckets) whose hashes differ.
3. Only rows hashing into differing buckets are exchanged and
   LWW-merged, by the full sweep's own per-row primitive
   (``antientropy.repair_row``).

The row hash covers every cell **including tombstones** (value,
timestamp, tombstone flag), so replicas that differ only in deletions
still diverge in their trees.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable, List, Set

from repro.cluster.antientropy import repair_row
from repro.common.hashing import hash_key
from repro.common.records import Cell, ColumnName

__all__ = ["MerkleTree", "build_tree", "differing_buckets", "merkle_repair"]


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
        consistent order across replicas; callers sort by key repr)."""
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


def build_tree(node, table: str, depth: int, key_filter=None) -> MerkleTree:
    """Build a node's Merkle tree over its local rows of ``table``.

    ``key_filter(key) -> bool`` restricts the tree to a key subset —
    repair uses it to compare only the range two nodes both replicate
    (they legitimately store different rows outside it).
    """
    tree = MerkleTree(depth)
    engine = node.engine
    for key in sorted(engine.keys(table), key=repr):
        if key_filter is not None and not key_filter(key):
            continue
        tree.add_row(key, engine.read_row(table, key))
    tree.seal()
    return tree


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


def merkle_repair(cluster, table: str, depth: int = 6):
    """Merkle anti-entropy over one table; a simulation process.

    Builds each alive replica's tree (charging read CPU via a repair
    round trip per divergent row only), compares pairwise, and runs
    ``repair_row`` on exactly the rows in differing buckets.  Returns
    ``(rows_transferred, buckets_compared)``.
    """
    env = cluster.env
    nodes = [node for node in cluster.nodes if not node.is_down
             and node.engine.has_table(table)]
    if len(nodes) < 2:
        return (0, 0)

    def shared_filter(a_id: int, b_id: int):
        """Keys whose replica set contains both nodes of a pair —
        outside it the two nodes legitimately store different rows."""
        def accept(key: Hashable) -> bool:
            ids = {replica.node_id
                   for replica in cluster.replicas_for(table, key)}
            return a_id in ids and b_id in ids

        return accept

    # Per-pair trees over the commonly replicated range (Cassandra
    # repairs per token range for the same reason).  Divergent keys are
    # collected across all pairs, then exchanged once.
    keys: Set[Hashable] = set()
    comparisons = 0
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            a, b = nodes[i], nodes[j]
            comparisons += 1
            accept = shared_filter(a.node_id, b.node_id)
            tree_a = build_tree(a, table, depth, accept)
            tree_b = build_tree(b, table, depth, accept)
            # Exchanging a tree: one round trip per pair.
            yield env.timeout(cluster.network.one_way_delay(
                a.node_id, b.node_id) * 2)
            divergent = set(differing_buckets(tree_a, tree_b))
            if not divergent:
                continue
            for node in (a, b):
                for key in node.engine.keys(table):
                    if (accept(key)
                            and MerkleTree.bucket_of(key, depth)
                            in divergent):
                        keys.add(key)
    transferred = 0
    for key in sorted(keys, key=repr):
        transferred += yield from repair_row(cluster, table, key)
    return (transferred, comparisons)
