"""Shared record-store primitives: cells, timestamps, rings, quorums."""

from repro.common.hashing import TokenRing, hash_key
from repro.common.quorum import majority, validate_quorum
from repro.common.records import (
    NULL_TIMESTAMP,
    Cell,
    ColumnName,
    Row,
    cell_wins,
    merge_cells,
    merge_rows,
    stale_cells,
)
from repro.common.timestamps import TimestampOracle

__all__ = [
    "Cell",
    "Row",
    "ColumnName",
    "cell_wins",
    "merge_cells",
    "merge_rows",
    "stale_cells",
    "NULL_TIMESTAMP",
    "TimestampOracle",
    "TokenRing",
    "hash_key",
    "majority",
    "validate_quorum",
]
