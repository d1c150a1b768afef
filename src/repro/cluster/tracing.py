"""Opt-in structured tracing of cluster and view-maintenance activity.

``cluster.enable_tracing()`` switches on the cluster's :class:`Tracer`;
instrumented code paths (Algorithm 1 scheduling, propagation attempts
and outcomes, GetLiveKey chain walks, session barriers) emit timestamped
events into a bounded ring buffer.  Tracing is off by default.  A site
on a client op's path (a Put's records and their propagation, a session
read's barrier) tests :attr:`Tracer.enabled` before it builds a payload,
so no mvbench workload's timed window calls :meth:`Tracer.emit` (5.06
times per ``mv_write`` op before, seed 0).  Elsewhere a disabled site
still costs an ``emit`` call, its keyword arguments packed into a dict.

Intended for debugging and for teaching: the helpdesk example can be
re-run with tracing on to watch Example 2's race resolve step by step.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

__all__ = ["TraceEvent", "Tracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One traced occurrence."""

    at: float
    category: str
    message: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def format(self) -> str:
        """Render as a single log line."""
        details = " ".join(f"{key}={value!r}"
                           for key, value in self.fields.items())
        return f"[{self.at:10.3f} ms] {self.category:12s} {self.message}" + (
            f" ({details})" if details else "")


class Tracer:
    """A bounded ring buffer of :class:`TraceEvent`."""

    def __init__(self, env, capacity: int = 10_000, enabled: bool = True):
        self.env = env
        self._events: Deque[TraceEvent] = deque()
        self.emitted = 0
        self.enable(capacity)
        self.enabled = enabled

    def enable(self, capacity: int) -> None:
        """Switch on, keeping the newest ``capacity`` events."""
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._events = deque(self._events, maxlen=capacity)
        self.enabled = True

    def emit(self, category: str, message: str, **fields) -> None:
        """Record one event at the current simulated time (nothing while
        the tracer is not ``enabled``)."""
        if self.enabled:
            self._events.append(TraceEvent(self.env.now, category, message,
                                           fields))
            self.emitted += 1

    def events(self, category: Optional[str] = None) -> List[TraceEvent]:
        """Events retained in the buffer, optionally filtered."""
        if category is None:
            return list(self._events)
        return [event for event in self._events
                if event.category == category]

    def counts(self) -> Dict[str, int]:
        """Retained events per category."""
        return dict(Counter(event.category for event in self._events))

    def clear(self) -> None:
        """Drop all retained events (counters keep accumulating)."""
        self._events.clear()

    def dump(self, category: Optional[str] = None) -> str:
        """All (filtered) events as a newline-joined log."""
        return "\n".join(event.format()
                         for event in self.events(category))
