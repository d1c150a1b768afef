"""Measurement plumbing: latency recording and run summaries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["LatencyRecorder", "RunResult"]


class LatencyRecorder:
    """Accumulates latency samples (ms) and summarizes them."""

    def __init__(self):
        self._samples: List[float] = []

    def record(self, value: float) -> None:
        """Add one sample."""
        self._samples.append(value)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def percentile(self, p: float) -> float:
        """The p-th percentile (nearest-rank), p in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1,
                          round(p / 100.0 * (len(ordered) - 1))))
        return ordered[rank]


@dataclass
class RunResult:
    """Summary of one workload run (all times in simulated ms)."""

    operations: int
    duration: float
    latency: LatencyRecorder
    errors: int = 0
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Operations per simulated *second*."""
        if self.duration <= 0:
            return 0.0
        return self.operations / (self.duration / 1000.0)

    @property
    def mean_latency(self) -> float:
        """Mean operation latency in ms."""
        return self.latency.mean

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (f"{self.operations} ops in {self.duration:.0f} ms "
                f"({self.throughput:.0f} req/s, "
                f"mean {self.mean_latency:.3f} ms, "
                f"p99 {self.latency.percentile(99):.3f} ms, "
                f"{self.errors} errors)")
