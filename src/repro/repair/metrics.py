"""Scrubber observability: counters and convergence timing.

One :class:`ScrubMetrics` instance accumulates over a scrubber's
lifetime.  Besides plain work counters (ranges compared, rows scanned,
repairs applied) it tracks *time-to-convergence*: the simulated time
between the first confirmed divergence and the first subsequent round
whose row comparison found every range clean again.  The
``ext_repair`` experiment reads these to plot bounded time-to-repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ScrubMetrics"]


@dataclass
class ScrubMetrics:
    """Counters for one :class:`~repro.repair.scheduler.ViewScrubber`."""

    rounds: int = 0
    clean_rounds: int = 0
    backoff_rounds: int = 0
    skipped_rounds: int = 0  # no target view, or no alive coordinator
    ranges_compared: int = 0
    ranges_skipped_clean: int = 0
    rows_scanned: int = 0
    divergences_found: int = 0
    repairs_applied: int = 0
    repair_failures: int = 0
    rows_skipped_unavailable: int = 0
    # Rows left unjudged: work was in flight on the chain when the rows
    # were compared, or its epoch moved before the verify returned
    # (``ViewManager.chain_epoch``).
    rows_skipped_in_flight: int = 0
    # Mid-round coordinator re-elections: the scrub coordinator crashed
    # (e.g. a crash-loop adversary) and a live node took over the round.
    coordinator_switches: int = 0
    first_divergence_at: Optional[float] = None
    converged_at: Optional[float] = None

    def note_divergence(self, now: float) -> None:
        """A divergence was confirmed by a quorum read at time ``now``."""
        if self.first_divergence_at is None:
            self.first_divergence_at = now
        self.converged_at = None

    def note_clean_round(self, now: float) -> None:
        """A full round found every range clean at time ``now``."""
        self.clean_rounds += 1
        if self.first_divergence_at is not None and self.converged_at is None:
            self.converged_at = now

    def time_to_convergence(self) -> Optional[float]:
        """Simulated ms from first divergence to the clean round healing
        it, or None while divergence is unobserved or outstanding."""
        if self.first_divergence_at is None or self.converged_at is None:
            return None
        return self.converged_at - self.first_divergence_at
