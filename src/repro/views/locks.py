"""Per-base-row propagation locks (paper Section IV-F).

Propagations for the same base row must not run concurrently.  The
paper proposes a lock service keyed by the base-row key: exclusive
locks for view-key propagation, shared locks for materialized-cell
propagation.  Here every propagation takes its row exclusively: no
benchmark workload, figure or experiment ever held two shared locks at
once, only the fuzzer did (DESIGN.md, decision 4), so one mode keeps
their schedules with one queue.  Locks affect only update propagation
— never base-table Get/Put or view Gets.

:class:`LockService` keys a one-token FIFO :class:`Semaphore` by
``(view name, base key)`` and charges an optional round-trip latency
per acquire, modelling a separate lock-service deployment.  The
dedicated propagators (``ViewManager.serialized`` under
``"propagators"``) queue on the same service, with no round trip, and
are counted the same way: every grant is one acquisition, every queued
one a contention and its wait.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Hashable, Tuple

from repro.errors import SimulationError
from repro.sim.kernel import Environment, Event
from repro.sim.resources import Semaphore

__all__ = ["LockService"]


class LockService:
    """Keyed lock service for update propagation.

    ``latency`` models one round trip to the lock service per acquire
    (0 keeps it free); releases are fire-and-forget messages and return
    immediately, so they are safe to call from ``finally`` blocks::

        yield from lock_service.acquire("V", base_key)
        try:
            ...
        finally:
            lock_service.release("V", base_key)
    """

    def __init__(self, env: Environment, latency: float = 0.0):
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.env = env
        self.latency = latency
        self._locks: Dict[Tuple[str, Hashable], Semaphore] = {}
        self.acquisitions = 0
        self.contentions = 0
        # Contention observability (the Figure 8 bottleneck, measurable):
        # total simulated ms spent blocked on grants, and the deepest
        # wait queue ever seen behind a single (view, base key) lock.
        self.wait_time_total = 0.0
        self.max_queue_depth = 0

    def request(self, view: str, base_key: Hashable) -> Event:
        """Queue for the lock now, with no round trip: an event that
        fires once it is granted (already triggered if it is free).

        A free grant counts one acquisition at once; a queued one counts
        a contention and the queue depth now, and its acquisition and
        wait when it is granted."""
        key = (view, base_key)
        lock = self._locks.get(key)
        if lock is None:
            lock = self._locks[key] = Semaphore(self.env, tokens=1)
        grant = lock.acquire()
        if grant.triggered:
            self.acquisitions += 1
            return grant
        self.contentions += 1
        if lock.waiting > self.max_queue_depth:
            self.max_queue_depth = lock.waiting
        grant.callbacks.append(partial(self._granted, self.env.now))
        return grant

    def _granted(self, queued_at: float, _grant: Event) -> None:
        self.acquisitions += 1
        self.wait_time_total += self.env.now - queued_at

    def acquire(self, view: str, base_key: Hashable):
        """Process helper: acquire with lock-service latency."""
        if self.latency:
            yield self.env.timeout(self.latency)
        yield self.request(view, base_key)

    def release(self, view: str, base_key: Hashable) -> None:
        """Release a lock (fire-and-forget; no simulated delay): hand it
        to the oldest waiter, or drop it if nobody waits."""
        key = (view, base_key)
        lock = self._locks.get(key)
        if lock is None:  # a free lock is dropped, never kept at 1 token
            raise SimulationError(f"release of {key!r} without hold")
        if lock.waiting:
            lock.release()
        else:
            del self._locks[key]

    @property
    def active_locks(self) -> int:
        """Locks currently held or queued."""
        return len(self._locks)

    def stats(self) -> Dict[str, float]:
        """Contention counters for snapshots and experiments."""
        return {
            "acquisitions": self.acquisitions,
            "contentions": self.contentions,
            "wait_time_total": round(self.wait_time_total, 6),
            "mean_wait": round(
                self.wait_time_total / self.contentions, 6
            ) if self.contentions else 0.0,
            "max_queue_depth": self.max_queue_depth,
            "active_locks": self.active_locks,
        }
