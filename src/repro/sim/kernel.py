"""Discrete-event simulation kernel.

This module provides a small, deterministic, generator-based discrete-event
simulation framework in the style of SimPy, written from scratch for this
reproduction.  All cluster machinery (nodes, coordinators, clients, view
propagators) runs as :class:`Process` coroutines over a shared
:class:`Environment`.

Core concepts
-------------

``Environment``
    Owns the virtual clock and the event heap.  ``env.run(until=...)``
    executes scheduled events in timestamp order.

``Event``
    A one-shot occurrence.  Processes wait on events by ``yield``-ing them.
    Events carry a value (or an exception) once triggered.

``Process``
    Wraps a generator.  Each ``yield`` suspends the process until the yielded
    event fires; the event's value is returned from the ``yield`` expression
    (or its exception is raised there).  A process is itself an event that
    fires when the generator finishes, so processes can wait on each other.

``Timeout``
    An event that fires after a fixed virtual-time delay.

``Environment.call_at``
    A timer with no event: one callback, called with no argument at an
    instant.  Nothing can wait on it.

Determinism: events scheduled for the same instant fire in scheduling order
(FIFO, via a monotone sequence counter in the heap entry), so a simulation
with a fixed RNG seed is fully reproducible.

Performance notes: this kernel is the hot path of every run (mvbench's
``sim.kernel.*`` rows, see ``benchmarks/mvbench/README.md``), and what a
run costs is, to first order, the number of events popped off the heap.
So the cheapest event is the one never scheduled: only an event that
advances the clock *for someone waiting on it* needs the heap.  A CPU
is the instant each core next falls free (``sim/resources.py``): work
somebody waits on is one timer at its computed end, however long it
queued, and work nobody waits on (a write's deferred part) moves a
core's free time and is no event at all.  A hand-off *within* one instant —
a reply reaching its quorum collector, the collector waking the waiting
coordinator — goes through :meth:`Event.succeed_now`, which runs the
callbacks inside the caller instead of one pop later.  A timer that one
callback finishes and no process yields needs no event either:
:meth:`Environment.call_at` puts the callback itself on the heap under
the key :meth:`Environment.timeout_at` would take, so the pop order is
unchanged; it is still one pop the event watcher sees, but it has no
value, callbacks list or failure to escalate.  Use it for work nobody
awaits as a process (an RPC is three, and its reply goes straight into
its quorum collector: ``cluster/network.py``), and an :class:`Event`
for what a process yields, what has several listeners, and any failure.
On the hottest paths, an RPC hop and ``Resource.hold``, the frame that
arms a timer pushes the entry these methods would, one frame fewer.
What is left is made cheap: event classes are ``__slots__``-based,
:class:`Timeout` initializes itself without chaining through
``Event.__init__``, and :meth:`Environment.run` drains the heap in one
loop with its locals bound outside it.  No pop or resume makes a type
test: a ``call_at`` entry holds its callback in a slot of its own, and
:meth:`Process._resume` reads a yield's ``callbacks``, which a
non-event lacks.

The second cost is CPython's cyclic garbage collector, which allocation
sets off and which no per-function profile names: cProfile charges each
pass to whichever allocation triggered it, so it reads as a slow
``__init__`` somewhere.  Once a cluster is loaded, every full pass
walks all the rows, cell dicts and cells the load left behind, yet the
traffic of a fault-free run makes no reference cycle for it to find:
an event, an RPC's call and a record are freed by reference counting
once the last callback drops them.  So :meth:`Environment.run` turns
automatic collection off while it drains the heap and restores the
caller's collector state on every way out.  Just before it returns it
collects generation 0 if that generation's count is over its threshold
(what CPython would do at the next allocation), so every collection
left runs inside the caller's run and none is deferred onto whatever
the caller does next; the cycles a run does make (a failure's
exception and its traceback) are reclaimed there or later.  A
collector the caller disabled, or a generation-0 threshold of 0, is
left as it is.

A simulation is freed by reference counting when it is dropped: no
collaborator holds its owner, so a drained cluster is a tree.  One
dropped mid-run is not, since its heap and its suspended processes
reach back into it, and is closed first (:meth:`Environment.close`).
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Generator, Optional

from repro.errors import ProcessError, SimulationError, StopSimulation

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "PENDING",
]


class _Pending:
    """Sentinel for 'event has no value yet'."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


PENDING = _Pending()

# Scheduling priorities: URGENT events (process resumptions) run before
# NORMAL events scheduled for the same instant.  This matches SimPy and keeps
# causality intuitive.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot simulation event.

    An event moves through three phases: *pending* (created), *triggered*
    (given a value or exception and placed on the event heap), and
    *processed* (its callbacks have run).  Waiting processes register
    callbacks; the kernel invokes them when the event is popped off the heap.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        # True once a failure value was consumed by some waiter, so the
        # kernel does not escalate an unhandled failure.
        self._defused: bool = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or was) scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid += 1
        heapq.heappush(env._heap, (env._now, NORMAL, env._eid, self, None))
        return self

    def succeed_now(self, value: Any = None) -> "Event":
        """Trigger the event successfully and run its callbacks *now*.

        :meth:`succeed` schedules the event for the current instant, so
        its waiters run one heap pop later; this runs them inside the
        caller, in registration order, and the event is *processed* on
        return — a process that yields it afterwards continues at once.
        It is never popped off the heap, so the event watcher does not
        see it.

        Legal only where no process is executing, i.e. from a kernel
        callback (resuming a waiter inside a running process would nest
        the two), unless nothing waits on the event yet.  Successes
        only: a failure goes through :meth:`fail` and the heap, where
        one that no waiter consumes is escalated.  A callback that
        raises unwinds through the caller, so ``run(until=...)``, which
        stops by raising from a callback, should be given a process
        rather than an event that is triggered this way.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        callbacks = self.callbacks
        if callbacks and self.env._active is not None:
            raise SimulationError(
                f"{self!r} has waiters and cannot be triggered in place "
                f"from inside process {self.env._active.name!r}")
        self._ok = True
        self._value = value
        self.callbacks = None
        for callback in callbacks:
            callback(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A waiter that ``yield``s this event will have the exception raised
        at the yield point.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._eid += 1
        heapq.heappush(env._heap, (env._now, NORMAL, env._eid, self, None))
        return self

    def defuse(self) -> "Event":
        """Mark a failure of this event as handled.

        The kernel escalates any *failed* event whose failure no waiter
        consumed (errors must never pass silently).  ``defuse()`` opts an
        event out of that escalation: call it when a failure is an
        expected outcome that dedicated bookkeeping already records —
        e.g. a propagation completion that nobody is obligated to
        consume.  Safe to call in any phase (before or after
        triggering); returns ``self`` for chaining.
        """
        self._defused = True
        return self

    # -- callbacks ---------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event is processed.

        If the event was already processed the callback runs immediately.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Inlined Event.__init__ (timeouts are the most-allocated event).
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._defused = False
        self.delay = delay
        env._eid += 1
        heapq.heappush(env._heap,
                       (env._now + delay, NORMAL, env._eid, self, None))


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        # Inlined Event.__init__ (one Initialize per process start).
        self.env = env
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        self._defused = False
        env._eid += 1
        heapq.heappush(env._heap, (env._now, URGENT, env._eid, self, None))


class Process(Event):
    """A running simulation coroutine.

    The wrapped generator ``yield``s events; the process suspends until each
    fires.  The process is itself an event that triggers when the generator
    returns (success, with the return value) or raises (failure).
    """

    __slots__ = ("_generator", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        env._processes[self] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    # -- kernel interface ---------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Step the generator with ``event``'s outcome until it yields an
        event not yet processed, and wait there.  A failure is thrown in
        (which consumes it), a yield with no ``callbacks`` is thrown
        back as a :class:`SimulationError`, and the generator's end
        triggers the process."""
        env = self.env
        env._active = self
        generator = self._generator
        try:
            while True:
                if event._ok:
                    result = generator.send(event._value)
                else:
                    event._defused = True
                    result = generator.throw(event._value)
                try:
                    callbacks = result.callbacks
                except AttributeError:
                    event = Event(env)
                    event._ok = False
                    event._value = SimulationError(
                        f"{getattr(generator, '__name__', 'generator')!r} "
                        f"yielded a non-event: {result!r}")
                    continue
                if callbacks is not None:
                    # Not yet processed: wait for it (append directly —
                    # the processed-check of add_callback is this one).
                    callbacks.append(self._resume)
                    break
                # Already processed: loop and resume immediately with it.
                event = result
        except StopIteration as stop:
            env._processes.pop(self, None)
            self._ok = True
            self._value = stop.value
            env._eid += 1
            heapq.heappush(env._heap, (env._now, NORMAL, env._eid, self, None))
        except BaseException as exc:
            env._processes.pop(self, None)
            self._ok = False
            self._value = exc
            env._eid += 1
            heapq.heappush(env._heap, (env._now, NORMAL, env._eid, self, None))
        env._active = None


class Environment:
    """The simulation environment: virtual clock plus event heap."""

    __slots__ = ("_now", "_heap", "_eid", "_active", "_watcher",
                 "_processes")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        # Entries are (time, priority, sequence, event, None), or (...,
        # None, callback) for a call_at timer; the sequence makes every
        # key unique, so no comparison reaches the last two slots.
        self._heap: list[tuple] = []
        self._eid = 0
        self._active: Optional[Process] = None
        self._watcher: Optional[Callable[[Any], None]] = None
        # Every process not yet finished, in start order (for close()).
        self._processes: dict[Process, None] = {}

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    # -- fault injection / observation ---------------------------------------

    def set_event_watcher(
            self, watcher: Optional[Callable[[Any], None]]) -> None:
        """Install (or clear, with ``None``) the per-event watcher.

        The watcher is invoked with each event as it is popped off the
        heap, *before* its callbacks run — the one point through which
        every simulated occurrence passes.  A :meth:`call_at` timer is
        handed over as its callback.  It is the kernel's fault
        -injection seam: the scenario harness uses it to bound fuzzed
        schedules by event count (a generated fault schedule may never
        quiesce) and to observe scheduling without instrumenting every
        subsystem.  An exception raised by the watcher aborts
        :meth:`run` and propagates to the caller.  Watching costs one
        ``None`` check per event when disabled.
        """
        self._watcher = watcher

    # -- event factories -----------------------------------------------------

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` time units."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """Create an event that fires at the absolute time ``when``.

        For a deadline fixed earlier and armed later: ``now + (when -
        now)`` does not round back to ``when``, this does.
        """
        if when < self._now:
            raise ValueError(f"{when} is in the past (now={self._now})")
        event = Event(self)
        event._value = value
        self._eid += 1
        heapq.heappush(self._heap, (when, NORMAL, self._eid, event, None))
        return event

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Call ``callback()`` at the absolute time ``when``, with no
        :class:`Event`: a timer nobody can wait on.

        It takes the key a :meth:`timeout_at` would, so it fires in the
        same order among everything else on the heap, is one pop, and
        is handed to the event watcher; an exception it raises unwinds
        through :meth:`run`.  For work one callback finishes (see the
        module's Performance notes).
        """
        if when < self._now:
            raise ValueError(f"{when} is in the past (now={self._now})")
        self._eid += 1
        heapq.heappush(self._heap, (when, NORMAL, self._eid, None, callback))

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator, name=name)

    def close(self) -> None:
        """End an undrained simulation where it stands, so that reference
        counting frees it once dropped: close each unfinished process's
        generator (newest first; its ``finally`` runs, and a process that
        starts is closed too), empty the heap, drop the event watcher.
        Not to be called from inside a running process."""
        processes = self._processes
        while processes:
            processes.popitem()[0]._generator.close()
        self._heap.clear()
        self._watcher = None

    # -- scheduling / running -------------------------------------------------

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until the clock reaches it), or an :class:`Event` (run until it
        triggers, returning its value).

        Automatic garbage collection is off while the heap drains and
        back as the caller had it on every way out; on the way out a
        young generation over its threshold is collected (see the
        module's Performance notes).
        """
        stop_at: Optional[float] = None
        stop_event: Optional[Event] = None
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                # Already finished: report its outcome without running.
                if not stop_event._ok:
                    stop_event._defused = True
                    raise stop_event._value
                return stop_event._value
            stop_event.add_callback(self._stop_callback)
        elif until is not None:
            stop_at = float(until)
            if stop_at < self._now:
                raise SimulationError(
                    f"until={stop_at} is in the past (now={self._now})")
        collecting = gc.isenabled()
        gc.disable()
        try:
            # Hot loop, locals bound once.  The watcher is bound once
            # too: installing one mid-run takes effect on the next
            # ``run()`` call.
            heap = self._heap
            pop = heapq.heappop
            watcher = self._watcher
            while heap:
                if stop_at is not None and heap[0][0] > stop_at:
                    self._now = stop_at
                    break
                when, _prio, _eid, event, timer = pop(heap)
                self._now = when
                if watcher is not None:
                    watcher(event if timer is None else timer)
                if timer is not None:
                    timer()
                    continue
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    # An event failed and nobody was waiting: escalate
                    # so errors never pass silently.
                    exc = event._value
                    raise ProcessError(
                        f"unhandled failure in {event!r}: {exc!r}") from exc
            if stop_event is not None:
                raise SimulationError(
                    "run(until=event) finished but the event never triggered")
            if stop_at is not None and self._now < stop_at:
                self._now = stop_at
            return None
        except StopSimulation as stop:
            fired = stop.args[0]
            if not fired._ok:
                fired._defused = True
                raise fired._value
            return fired._value
        finally:
            if collecting:
                gc.enable()
                young = gc.get_threshold()[0]
                if young and gc.get_count()[0] > young:
                    gc.collect(0)

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation(event)
