"""Freshness SLO accounting: histograms and bound-hit counters.

Every read through the fresh path records the staleness certificate it
served under: per-view histograms of served staleness, plus counters
for bounded reads, bound hits (served from the view within bound),
escalations (compensation read consulted the base table), and
compensated keys.  ``ViewManager.freshness_stats()`` reports the
aggregates.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["FreshnessSLO", "HISTOGRAM_BOUNDS"]

# Upper edges (sim-ms) of the staleness histogram buckets; the final
# bucket is unbounded.
HISTOGRAM_BOUNDS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)


class FreshnessSLO:
    """Per-view freshness service-level accounting."""

    def __init__(self):
        self.reads_unbounded = 0
        self.reads_bounded = 0
        self.bound_hits = 0
        self.escalations = 0
        self.compensated_keys = 0
        self._histograms: Dict[str, List[int]] = {}
        self._max_served: Dict[str, float] = {}

    def observe(self, view_name: str, staleness_ms: float, *,
                bounded: bool, escalated: bool = False,
                compensated_keys: int = 0) -> None:
        """Record one fresh-path read's served staleness."""
        if bounded:
            self.reads_bounded += 1
            if escalated:
                self.escalations += 1
            else:
                self.bound_hits += 1
        else:
            self.reads_unbounded += 1
        self.compensated_keys += compensated_keys
        histogram = self._histograms.get(view_name)
        if histogram is None:
            histogram = [0] * (len(HISTOGRAM_BOUNDS) + 1)
            self._histograms[view_name] = histogram
        histogram[self._bucket(staleness_ms)] += 1
        if staleness_ms > self._max_served.get(view_name, 0.0):
            self._max_served[view_name] = staleness_ms

    @staticmethod
    def _bucket(staleness_ms: float) -> int:
        for index, edge in enumerate(HISTOGRAM_BOUNDS):
            if staleness_ms <= edge:
                return index
        return len(HISTOGRAM_BOUNDS)

    def histogram(self, view_name: str) -> List[Tuple[float, int]]:
        """``(bucket_upper_edge, count)`` pairs; the last edge is inf."""
        counts = self._histograms.get(view_name)
        if counts is None:
            counts = [0] * (len(HISTOGRAM_BOUNDS) + 1)
        edges = (*HISTOGRAM_BOUNDS, float("inf"))
        return list(zip(edges, counts))

    def stats(self) -> dict:
        """Aggregate counters plus per-view histogram summaries."""
        return {
            "reads_unbounded": self.reads_unbounded,
            "reads_bounded": self.reads_bounded,
            "bound_hits": self.bound_hits,
            "escalations": self.escalations,
            "compensated_keys": self.compensated_keys,
            "max_served_staleness_ms": dict(self._max_served),
            "histograms": {view: self.histogram(view)
                           for view in self._histograms},
        }
