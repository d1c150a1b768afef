"""Token-range scanner: budgeted, cursor-resumable walks of a base table.

The scrubber must not monopolize the cluster: each round it verifies at
most ``row_budget`` rows, resuming where the previous round stopped.
Keys are grouped into ``2**depth`` hash buckets (:func:`bucket_of`), the
same ones the detector reports dirty
(:func:`~repro.repair.detector.dirty_buckets`), so a round asks the
scanner for exactly the buckets holding a divergent row, and the
persistent cursor guarantees every dirty bucket is eventually visited
even when one round's budget cannot cover them all.

Scanning reads node storage engines directly (operator tooling, like the
invariant checkers and GC sweeps); every *verification* and *repair* of
a scanned key goes through ordinary quorum operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.common.hashing import hash_key

__all__ = ["ScanPlan", "TokenRangeScanner", "bucket_of"]


def bucket_of(key: Hashable, depth: int) -> int:
    """The hash bucket of ``key`` among ``2**depth`` (stable across nodes).

    The salt is the one the scrubber has always bucketed with: a new
    salt would reshuffle every bucket and with it every scrub order.
    """
    return hash_key(key, salt="merkle") >> (64 - depth) if depth else 0


@dataclass
class ScanPlan:
    """One round's worth of keys to verify.

    ``rows`` pairs each key with its hash bucket; ``covered_all`` is True
    when every requested bucket fit inside the row budget (the round saw
    the complete dirty range, not a budget-limited prefix).
    """

    rows: List[Tuple[int, Hashable]] = field(default_factory=list)
    covered_all: bool = True


class TokenRangeScanner:
    """Walks one base table's key space in hash-bucket order."""

    def __init__(self, cluster, table: str, depth: int):
        if not 0 <= depth <= 20:
            raise ValueError("depth must be in [0, 20]")
        self.cluster = cluster
        self.table = table
        self.depth = depth
        self.buckets = 1 << depth
        self._cursor = 0
        # Resume index inside the cursor bucket: a bucket holding more
        # keys than one round's budget is consumed across rounds instead
        # of re-scanning its prefix forever.
        self._offset = 0

    def snapshot(self, extra_keys: Iterable[Hashable] = ()
                 ) -> Dict[int, List[Hashable]]:
        """The current key universe grouped by bucket.

        Unions keys across every alive node's local storage (down nodes
        are picked up on a later round), plus ``extra_keys`` — callers
        pass base keys known only from view-side introspection so stray
        view rows are scanned even if their base replicas are all down.
        """
        keys = self.cluster.table_keys(self.table).union(extra_keys)
        by_bucket: Dict[int, List[Hashable]] = {}
        for key in keys:
            bucket = bucket_of(key, self.depth)
            by_bucket.setdefault(bucket, []).append(key)
        for bucket_keys in by_bucket.values():
            bucket_keys.sort(key=repr)
        return by_bucket

    def plan(self, wanted_buckets, row_budget: int,
             snapshot: Optional[Dict[int, List[Hashable]]] = None) -> ScanPlan:
        """Select up to ``row_budget`` keys from ``wanted_buckets``.

        Buckets are visited in ring order starting at the persistent
        cursor; the cursor advances past fully consumed buckets and
        parks on a bucket the budget truncated, resuming at the first
        unconsumed key inside it — a single bucket larger than the whole
        budget still drains across rounds.
        """
        if row_budget < 0:
            raise ValueError("row_budget must be non-negative")
        wanted = set(wanted_buckets)
        by_bucket = snapshot if snapshot is not None else self.snapshot()
        plan = ScanPlan()
        budget = row_budget
        start = self._cursor
        start_offset = self._offset
        self._offset = 0
        for i in range(self.buckets):
            bucket = (start + i) % self.buckets
            if bucket not in wanted:
                continue
            keys = list(by_bucket.get(bucket, ()))
            # The parked bucket resumes where the last round's budget
            # truncated it (the key list is sorted, so the offset is
            # stable; a stale offset just defers those keys to the next
            # full pass — verification is idempotent either way).
            offset = start_offset if bucket == start and i == 0 else 0
            keys = keys[offset:]
            if budget < len(keys):
                plan.rows.extend((bucket, key) for key in keys[:budget])
                plan.covered_all = False
                self._cursor = bucket
                self._offset = offset + budget
                return plan
            plan.rows.extend((bucket, key) for key in keys)
            budget -= len(keys)
        if plan.rows:
            self._cursor = (plan.rows[-1][0] + 1) % self.buckets
        return plan
