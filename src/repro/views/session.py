"""Session guarantees (paper Section V, Definition 4).

A session is a sequence of operations by one client, all directed at the
same coordinator server.  The coordinator associates every pending view
propagation with the session whose base-table Put triggered it; a view
Get within the session blocks until all such propagations for that view
are complete.  The guarantee is read-your-own-propagations: the Get sees
a view state at least as late as the one produced by the client's own
earlier Puts.  It says nothing about other sessions' updates.

A Put hands the session the completion event of each outbox record it
appends (:class:`~repro.views.outbox.OutboxRecord`).  A barrier waits on
the session's unresolved events for the view and nothing else: another
client's record on the same coordinator, however long it retries, never
holds it.  A record coalesced or folded into a survivor fires its event
when the survivor resolves.

The barrier waits for *resolution*, not success: a propagation lost to a
crash or abandoned after retries is no longer pending, so it releases
the barrier rather than raising into an unrelated client Get (the
divergence it left behind is the scrubber's job, not the reader's).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import SessionError
from repro.sim.kernel import Environment, Event

__all__ = ["Session", "SessionManager"]


@dataclass
class Session:
    """One client session pinned to a coordinator."""

    session_id: int
    coordinator_id: int
    # view name -> completion events of the session's records.
    _pending: Dict[str, List[Event]] = field(default_factory=dict)
    ended: bool = False

    def _unresolved(self, view_name: str) -> List[Event]:
        """The session's events for ``view_name`` that have not fired;
        drops the ones that have."""
        events = self._pending.setdefault(view_name, [])
        events[:] = [event for event in events if not event.triggered]
        return events

    def pending_barriers(self, view_name: str) -> int:
        """Barriers a view Get would block on right now: the session's
        records for ``view_name`` that have not resolved."""
        return len(self._unresolved(view_name))


class SessionManager:
    """Creates sessions and tracks their pending view propagations."""

    def __init__(self, env: Environment):
        self.env = env
        self._ids = itertools.count(1)
        self.blocked_gets = 0

    def create(self, coordinator_id: int) -> Session:
        """Open a new session pinned to ``coordinator_id``."""
        return Session(next(self._ids), coordinator_id)

    def end(self, session: Session) -> None:
        """Close a session (pending propagations keep running)."""
        session.ended = True

    def register(self, session: Session, view_name: str,
                 completion: Event) -> None:
        """Record that one of the session's Puts appended a record for
        ``view_name`` whose resolution fires ``completion`` — a barrier
        target for later Gets."""
        if session.ended:
            raise SessionError(
                f"session {session.session_id} has already ended")
        session._unresolved(view_name).append(completion)

    def barrier(self, session: Session, view_name: str):
        """Process helper: block until the session's pending propagations
        to ``view_name`` have *resolved* (paper Section V enforcement).

        Resolution — not success: a record's completion fires either way
        (propagation lost to a coordinator crash, or abandoned after
        retries).  The failure stays recorded in the view manager's
        counters; it is not re-raised into a client Get that merely
        shares the session.
        """
        # A copy: Puts registered after the Get began do not extend it.
        waits = list(session._unresolved(view_name))
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
