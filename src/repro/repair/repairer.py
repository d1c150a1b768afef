"""The repair arm: re-drive a diverged base row through propagation.

Repair is deliberately *not* a special write path.  A diverged row is
healed by replaying what Algorithm 1 would have done for the row's
current base state: quorum-read the watched columns, propagate the view
key cell at its own timestamp (starting from the never-written-NULL
guess, whose virtual anchor makes it a universal chain entry point —
``GetLiveKey`` walks from the NULL anchor to whatever row is currently
live), then propagate each materialized cell at its own timestamp.
Because every view write carries scaled base timestamps, replaying
already-propagated state is an LWW no-op, and replaying lost state lands
exactly where the original propagation would have put it — repaired
views are indistinguishable from never-diverged ones.

The routine, :func:`~repro.views.drive.repropagate_row`, lives beside
the retry loop it drives; lazy-delta flushes and ``ViewManager.backfill``
share it (an initial load is just a repair of every base row against an
empty view).
"""

from repro.views.drive import repropagate_row

__all__ = ["repropagate_row"]
