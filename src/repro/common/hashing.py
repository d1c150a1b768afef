"""Consistent-hash token ring for record placement.

The paper (Section II): "The placement of records onto servers is typically
determined by hashing the record key ... we assume only that placement of a
record's copies is determined by its key value."

This module implements a Dynamo/Cassandra-style token ring: each node owns
``virtual_nodes`` tokens on a 64-bit ring; a key hashes to a ring position;
its N replicas are the next N *distinct* nodes clockwise from that position.
The same ring abstraction is reused by the dedicated-propagator assignment
of Section IV-F.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Hashable, List, Sequence, Tuple

__all__ = ["hash_key", "TokenRing"]

_RING_BITS = 64
_RING_SIZE = 1 << _RING_BITS


def hash_key(key: Hashable, salt: str = "") -> int:
    """Map an arbitrary hashable key to a 64-bit ring position.

    Uses SHA-256 over a canonical encoding so placement is stable across
    processes and runs (Python's builtin ``hash`` is salted per process).
    """
    encoded = f"{salt}|{type(key).__name__}|{key!r}".encode("utf-8")
    digest = hashlib.sha256(encoded).digest()
    return int.from_bytes(digest[:8], "big")


class TokenRing:
    """A consistent-hash ring mapping keys to ordered owner lists."""

    def __init__(self, members: Sequence[Any], virtual_nodes: int = 16,
                 salt: str = "ring"):
        if not members:
            raise ValueError("ring needs at least one member")
        if virtual_nodes < 1:
            raise ValueError(f"virtual_nodes must be >= 1, got {virtual_nodes}")
        if len(set(map(id, members))) != len(members) and \
                len(set(map(repr, members))) != len(members):
            raise ValueError("ring members must be distinct")
        self.members: Tuple[Any, ...] = tuple(members)
        self._salt = salt
        tokens: List[Tuple[int, int]] = []
        for index, member in enumerate(self.members):
            for vnode in range(virtual_nodes):
                token = hash_key((repr(member), vnode), salt=salt)
                tokens.append((token, index))
        tokens.sort()
        self._tokens = [t for t, _ in tokens]
        self._owners = [i for _, i in tokens]

    def __len__(self) -> int:
        return len(self.members)

    def preference_list(self, key: Hashable, count: int) -> List[Any]:
        """The first ``count`` distinct members clockwise from ``key``.

        This is the replica set for ``key`` when ``count`` = replication
        factor N.  Raises if ``count`` exceeds the membership size.
        """
        if count < 1 or count > len(self.members):
            raise ValueError(
                f"count must be in [1, {len(self.members)}], got {count}")
        position = hash_key(key, salt=self._salt)
        start = bisect.bisect_right(self._tokens, position)
        seen: List[Any] = []
        seen_indexes: set[int] = set()
        n_tokens = len(self._tokens)
        for step in range(n_tokens):
            owner_index = self._owners[(start + step) % n_tokens]
            if owner_index not in seen_indexes:
                seen_indexes.add(owner_index)
                seen.append(self.members[owner_index])
                if len(seen) == count:
                    break
        return seen

    def primary(self, key: Hashable) -> Any:
        """The first owner of ``key`` (used for propagator assignment)."""
        return self.preference_list(key, 1)[0]
