"""Application-supplied update timestamps.

The paper's system model (Section II) totally orders updates to a cell by
client-supplied timestamps.  In the Cassandra prototype these are
microsecond wall-clock timestamps taken at the client.  In the simulation,
:class:`TimestampOracle` derives timestamps from simulated time plus a
per-client disambiguator so that distinct clients draw distinct timestamps
while preserving the "roughly wall-clock" ordering the paper assumes.

Timestamps are plain integers; :data:`NULL_TIMESTAMP` (= -1) sorts below
all of them.
"""

from __future__ import annotations

from typing import Callable

from repro.common.records import NULL_TIMESTAMP

__all__ = ["TimestampOracle", "NULL_TIMESTAMP"]

# Number of low bits reserved for the client disambiguator.  With 16 bits we
# support 65k distinct clients before two clients could collide.
_CLIENT_BITS = 16
_CLIENT_MASK = (1 << _CLIENT_BITS) - 1


class TimestampOracle:
    """Monotonic per-client timestamp source.

    ``now_fn`` supplies the current simulated time in milliseconds; the
    oracle scales it to integer microseconds, appends the client id in the
    low bits, and enforces strict monotonicity per client (two Puts issued
    by one client at the same instant still get increasing timestamps).
    """

    def __init__(self, client_id: int, now_fn: Callable[[], float]):
        if client_id < 0 or client_id > _CLIENT_MASK:
            raise ValueError(
                f"client_id must be in [0, {_CLIENT_MASK}], got {client_id}")
        self.client_id = client_id
        self._now_fn = now_fn
        self._last = NULL_TIMESTAMP

    def next(self) -> int:
        """Allocate the next timestamp for this client."""
        micros = int(self._now_fn() * 1000.0)
        candidate = (micros << _CLIENT_BITS) | self.client_id
        if candidate <= self._last:
            candidate = self._last + (1 << _CLIENT_BITS)
        self._last = candidate
        return candidate
