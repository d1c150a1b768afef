"""Freshness subsystem: staleness certificates, bounded-staleness view
reads with compensation escalation, and the freshness SLO layer.

See :mod:`repro.freshness.certificate` for how per-view staleness is
derived from propagation metadata, :mod:`repro.freshness.read` for the
serve-or-escalate read path, :mod:`repro.freshness.slo` for the
histograms/counters ``ViewManager.freshness_stats()`` reports, and
:mod:`repro.freshness.audit` for the oracle-based bound auditor used by
tests and the ``ext_staleness`` experiment.
"""

from repro.freshness.audit import BoundedReadObservation, check_bounded_reads
from repro.freshness.certificate import (
    FreshnessTracker,
    StaleSource,
    StalenessCertificate,
    Wound,
)
from repro.freshness.read import FreshViewRead, fresh_view_get
from repro.freshness.slo import HISTOGRAM_BOUNDS, FreshnessSLO

__all__ = [
    "BoundedReadObservation",
    "check_bounded_reads",
    "FreshnessTracker",
    "StaleSource",
    "StalenessCertificate",
    "Wound",
    "FreshViewRead",
    "fresh_view_get",
    "FreshnessSLO",
    "HISTOGRAM_BOUNDS",
]
