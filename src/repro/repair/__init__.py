"""Background base↔view divergence detection and repair.

The paper's propagation protocol is driven entirely by the coordinator
that served the base Put; if that coordinator crashes mid-propagation
the view diverges from the base table *permanently* — replica-level
anti-entropy converges replicas of the same table but never compares a
base table against its views (the Section VIII staleness caveat).  This
package is the self-healing loop that closes the gap:

- :mod:`~repro.repair.scanner` — a token-range scanner walking base-table
  keys in budgeted, cursor-resumable batches;
- :mod:`~repro.repair.detector` — canonical expected-vs-actual live-row
  comparison, which names the dirty hash buckets once, and quorum-read
  confirmation;
- :func:`~repro.views.drive.repropagate_row` — repair by re-driving the
  row through the ordinary propagation machinery (idempotent via scaled
  timestamps), re-exported here;
- :mod:`~repro.repair.scheduler` — the :class:`ViewScrubber` background
  process (interval, row budget, rate limit), the one rule for which
  rows it may judge while propagation is in flight, and ``load_view``,
  its row loop loading a view created over a populated table;
- :mod:`~repro.repair.metrics` — counters and time-to-convergence.

Start one with :meth:`Cluster.start_scrubber`.
"""

from repro.repair.detector import (
    Divergence,
    actual_canonical_rows,
    canonical_base_row,
    canonical_view_entry,
    dirty_buckets,
    divergent_base_keys,
    expected_canonical_rows,
    verify_row,
)
from repro.repair.metrics import ScrubMetrics
from repro.repair.scanner import ScanPlan, TokenRangeScanner
from repro.repair.scheduler import ViewScrubber
from repro.views.drive import repropagate_row

__all__ = [
    "Divergence",
    "ScanPlan",
    "ScrubMetrics",
    "TokenRangeScanner",
    "ViewScrubber",
    "actual_canonical_rows",
    "canonical_base_row",
    "canonical_view_entry",
    "dirty_buckets",
    "divergent_base_keys",
    "expected_canonical_rows",
    "repropagate_row",
    "verify_row",
]
