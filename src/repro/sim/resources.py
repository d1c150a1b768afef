"""Shared-resource primitives for the simulation kernel.

``Resource`` models a server with fixed capacity (the CPU cores of a
storage node) and one FIFO queue.  It is kept as the instant each core
next falls free, so a unit of work of known length is *booked*, not
waited for slot by slot: it takes the core that falls free first, starts
then (or now, if that is earlier) and ends its length later.  A process
that waits on the work ``yield``s ``resource.hold(service_time)``, one
timer at the computed end; ``book`` only returns that end, for a caller
that arms a timer of its own (an RPC's charge, ``cluster/network.py``);
work nobody waits on (``defer``, the same method under a second name)
only moves a core's free time forward and schedules nothing.  Every
booking is priced in the one frame that books it: its length is
multiplied by the resource's ``slowdown`` (a gray-slow node's CPU) and
added to ``busy_time``.  Queuing at resources is what produces realistic
throughput saturation in the cluster experiments.

``Semaphore`` is a counting semaphore whose tokens can start at zero and
grow: the back-pressure and worker-slot bookkeeping of view maintenance
(``repro.views.outbox``) and, with one token, the FIFO queue of a base
row's propagations (``repro.views.locks``).
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.sim.kernel import NORMAL, Environment, Event

__all__ = ["Resource", "Semaphore"]


class Resource:
    """``capacity`` identical slots behind one FIFO queue.

    Work is served in the order it is submitted, each unit on the slot
    that falls free first: exactly the schedule of a queue whose slots
    are handed on as they free, with no event spent on a hand-off.
    Timers that end at the same instant fire in the order their work
    was submitted.  Usage from a process::

        yield resource.hold(service_time)

    and, for work whose end nobody waits on, ``resource.defer(length)``.
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        # A heap: the instant each slot next falls free.
        self._free = [env.now] * capacity
        # Gray failure: multiplier on every length booked (1.0 is exact).
        self.slowdown = 1.0
        # Work booked so far, slowdown included.
        self.busy_time = 0.0

    @property
    def free_at(self) -> float:
        """The instant the first slot falls free (in the past while one
        is idle): when work submitted now would start, at the earliest."""
        return self._free[0]

    def book(self, duration: float) -> float:
        """Queue ``duration`` of work, priced by :attr:`slowdown` and
        counted in :attr:`busy_time`; the instant it ends.  No event: a
        caller that wants its end heard arms its own timer."""
        if duration < 0:
            raise ValueError(f"negative duration {duration}")
        duration *= self.slowdown
        self.busy_time += duration
        free = self._free
        start = free[0]
        now = self.env._now
        if start < now:
            start = now
        end = start + duration
        heapq.heapreplace(free, end)
        return end

    # Work nobody waits on: it delays later work exactly as a hold would,
    # and schedules no event.
    defer = book

    def hold(self, duration: float) -> Event:
        """Occupy a slot for ``duration``; the event fires when it ends.

        One kernel event, the timer at the end, whether or not the work
        queues.  Work that must wait for a slot goes through
        :meth:`request`; the rest is pushed here, keyed as by
        ``Environment.timeout_at``.
        """
        env = self.env
        if self._free[0] > env._now:
            return self.request(duration)
        event = Event(env)
        event._value = None
        env._eid += 1
        heapq.heappush(env._heap,
                       (self.book(duration), NORMAL, env._eid, event, None))
        return event

    def request(self, duration: float) -> Event:
        """A :meth:`hold` that finds every slot busy: it starts when the
        first one falls free.  A separate method so the queued waits can
        be counted by wrapping it (mvbench's
        ``sim.resources.cpu_requests_queued_per_op``)."""
        return self.env.timeout_at(self.book(duration))


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

    @property
    def waiting(self) -> int:
        """Acquirers queued for a token."""
        return len(self._waiters)

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
