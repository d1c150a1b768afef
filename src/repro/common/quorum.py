"""Quorum arithmetic (paper Section II).

A Put waits for W of N replica acknowledgements; a Get waits for the first
R of N replica responses.  ``W + R > N`` gives classical quorum consensus
(reads see the latest acknowledged write); smaller settings trade
consistency for latency.
"""

from __future__ import annotations

from repro.errors import InvalidQuorumError

__all__ = [
    "majority",
    "validate_quorum",
]


def majority(n: int) -> int:
    """The smallest majority of ``n`` replicas."""
    if n < 1:
        raise InvalidQuorumError(f"replica count must be >= 1, got {n}")
    return n // 2 + 1


def validate_quorum(count: int, n: int, kind: str = "quorum") -> int:
    """Check ``1 <= count <= n`` and return ``count``."""
    if not 1 <= count <= n:
        raise InvalidQuorumError(
            f"{kind} must be in [1, {n}], got {count}")
    return count
