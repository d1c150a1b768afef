"""Session guarantees (paper Section V, Definition 4).

A session is a sequence of operations by one client, all directed at the
same coordinator server.  The coordinator associates every pending view
propagation with the session whose base-table Put triggered it; a view
Get within the session blocks until all such propagations for that view
are complete.  The guarantee is read-your-own-propagations: the Get sees
a view state at least as late as the one produced by the client's own
earlier Puts.  It says nothing about other sessions' updates.

A Put registers the sequence number its record received in its
coordinator's :class:`~repro.views.outbox.NodeOutbox`.  A barrier waits
for the outbox low-watermark to reach the session's highest registered
offset per view — per-Put events are unnecessary because the log is
totally ordered per node.

The barrier waits for *resolution*, not success: a propagation lost to a
crash or abandoned after retries is no longer pending, so it releases
the barrier rather than raising into an unrelated client Get (the
divergence it left behind is the scrubber's job, not the reader's).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import SessionError
from repro.sim.kernel import Environment, Event

__all__ = ["Session", "SessionManager"]


@dataclass
class Session:
    """One client session pinned to a coordinator."""

    session_id: int
    coordinator_id: int
    # view name -> {outbox: highest registered seq}.
    _offsets: Dict[str, Dict[object, int]] = field(default_factory=dict)
    ended: bool = False

    def pending_barriers(self, view_name: str) -> int:
        """Barriers a view Get would block on right now: outbox offsets
        the watermark has not reached."""
        return sum(1 for outbox, seq
                   in self._offsets.get(view_name, {}).items()
                   if seq > outbox.low_watermark)


class SessionManager:
    """Creates sessions and tracks their pending view propagations."""

    def __init__(self, env: Environment):
        self.env = env
        self._ids = itertools.count(1)
        self._sessions: Dict[int, Session] = {}
        self.blocked_gets = 0

    def create(self, coordinator_id: int) -> Session:
        """Open a new session pinned to ``coordinator_id``."""
        session = Session(next(self._ids), coordinator_id)
        self._sessions[session.session_id] = session
        return session

    def end(self, session: Session) -> None:
        """Close a session (pending propagations keep running)."""
        session.ended = True
        self._sessions.pop(session.session_id, None)

    def register_offset(self, session: Session, view_name: str,
                        outbox, seq: int) -> None:
        """Record that the session's latest Put for ``view_name`` sits at
        ``seq`` in ``outbox`` — the barrier target for later Gets."""
        if session.ended:
            raise SessionError(
                f"session {session.session_id} has already ended")
        offsets = session._offsets.setdefault(view_name, {})
        if seq > offsets.get(outbox, 0):
            offsets[outbox] = seq

    def barrier(self, session: Session, view_name: str):
        """Process helper: block until the session's pending propagations
        to ``view_name`` have *resolved* (paper Section V enforcement).

        Resolution — not success: the watermark advances when a record's
        completion fires either way (propagation lost to a coordinator
        crash, or abandoned after retries).  The failure stays recorded
        in the view manager's counters; it is not re-raised into a
        client Get that merely shares the session.
        """
        waits = [outbox.wait_for(seq)
                 for outbox, seq in session._offsets.get(view_name, {}).items()
                 if seq > outbox.low_watermark]
        if not waits:
            return
        self.blocked_gets += 1
        gate = self.env.event()
        remaining = len(waits)

        def _resolved(_event: Event) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                gate.succeed()

        for wait in waits:
            wait.add_callback(_resolved)
        yield gate
