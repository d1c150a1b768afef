"""Shared-resource primitives for the simulation kernel.

``Resource`` models a server with fixed capacity (e.g. the CPU cores of a
storage node): a process ``yield``s ``resource.hold(service_time)`` to
occupy a slot for that long, queuing FIFO behind other work, or takes and
returns a slot by hand with ``request()`` / ``release()``.  Queuing at
resources is what produces realistic throughput saturation in the
cluster experiments.

``Semaphore`` is a counting semaphore whose tokens can start at zero and
grow: the back-pressure and worker-slot bookkeeping of view maintenance
(``repro.views.outbox``).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.errors import SimulationError
from repro.sim.kernel import NORMAL, PENDING, Environment, Event

__all__ = ["Resource", "Semaphore"]


class _Hold(Event):
    """The event of one :meth:`Resource.hold`: fires when the hold ends.

    Its first callback is the resource's ``release``, so the slot is
    free again before any waiter resumes — and is freed even when
    nobody waits on the event at all.
    """

    __slots__ = ("duration",)

    def __init__(self, resource: "Resource", duration: float):
        if duration < 0:
            raise ValueError(f"negative duration {duration}")
        # Inlined Event.__init__ (one hold per CPU charge).
        self.env = resource.env
        self.callbacks = [resource.release]
        self._ok = True
        self._value = PENDING
        self._defused = False
        self.duration = duration

    def _start(self) -> None:
        """The slot is ours: schedule the end of the hold."""
        self._value = None
        self.env._schedule(self, NORMAL, self.duration)


class Resource:
    """A FIFO-queued resource with fixed ``capacity`` slots.

    Usage from a process, for work of a known length::

        yield resource.hold(service_time)

    or, to keep a slot across other waits::

        yield resource.request()
        try:
            ...
        finally:
            resource.release()

    Both kinds of waiter share one FIFO queue.

    Note: do not interrupt a process while it is waiting on
    ``request()`` — its queued grant would later fire unowned and leak a
    slot.  (Nothing in this library interrupts resource waiters; the
    caveat matters only for user code combining ``Process.interrupt``
    with resources.  A ``hold()`` cannot leak: it releases itself.)
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self, hold: Optional[float] = None) -> Event:
        """Return an event that fires when a slot is acquired.

        With ``hold`` the slot is kept for that long and given back
        without the caller's help, and the event fires when the hold
        *ends* — see :meth:`hold`, which is the way to ask for that.
        """
        event = Event(self.env) if hold is None else _Hold(self, hold)
        if self._in_use < self.capacity:
            self._in_use += 1
            self._grant(event)
        else:
            self._waiters.append(event)
        return event

    @staticmethod
    def _grant(waiter: Event) -> None:
        if type(waiter) is _Hold:
            waiter._start()
        else:
            waiter.succeed()

    def release(self, _ended: Optional[Event] = None) -> None:
        """Release a held slot, handing it to the oldest waiter if any.

        A waiting ``request()`` is granted (it resumes one heap pop
        later); a waiting ``hold()`` is scheduled to end ``duration``
        from now, directly.  Also the first callback of every hold's
        event, hence the ignored argument.
        """
        if self._in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self._waiters:
            # Hand the slot directly to the next waiter; _in_use unchanged.
            self._grant(self._waiters.popleft())
        else:
            self._in_use -= 1

    def hold(self, duration: float) -> Event:
        """Occupy a slot for ``duration``; the event fires when it ends.

        One event per hold whether or not it queues: with a slot free
        the hold starts now; otherwise it waits its turn behind earlier
        ``request()`` and ``hold()`` calls and the ``release()`` that
        frees its slot schedules its end, with no grant event in
        between.  The slot is released before the event's waiters
        resume.  Usage: ``yield resource.hold(service_time)``.
        """
        if self._in_use < self.capacity:
            # Uncontended, the common case: skip request().
            event = _Hold(self, duration)
            self._in_use += 1
            event._start()
            return event
        return self.request(duration)


class Semaphore:
    """A counting semaphore (capacity tokens, FIFO waiters).

    Unlike :class:`Resource`, the initial token count may be zero and tokens
    can be added beyond the initial count, which makes it suitable for
    back-pressure bookkeeping (e.g. bounding outstanding view propagations).
    """

    def __init__(self, env: Environment, tokens: int = 0):
        if tokens < 0:
            raise ValueError(f"tokens must be >= 0, got {tokens}")
        self.env = env
        self._tokens = tokens
        self._waiters: deque[Event] = deque()

    @property
    def tokens(self) -> int:
        """Currently available tokens."""
        return self._tokens

    def acquire(self) -> Event:
        """Return an event that fires once a token is consumed."""
        event = self.env.event()
        if self._tokens > 0:
            self._tokens -= 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Add a token, waking the oldest waiter if any."""
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed()
        else:
            self._tokens += 1
