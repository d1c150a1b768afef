"""Latency distributions used by the network and storage models.

All times are in milliseconds of simulated time.  Distributions are plain
callables over an injected ``random.Random`` stream so they stay
deterministic per experiment seed.  ``sample(rng)`` draws one delay;
``bind(rng)`` returns a zero-argument draw on ``rng`` that yields, draw
for draw, the very floats ``sample(rng)`` would, in fewer Python frames:
the network calls it once per message.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable

__all__ = [
    "LatencyModel",
    "Fixed",
    "Uniform",
    "ShiftedExponential",
    "LogNormal",
]


class LatencyModel:
    """Base class: a sampleable non-negative delay distribution."""

    def sample(self, rng: random.Random) -> float:
        raise NotImplementedError

    def bind(self, rng: random.Random) -> Callable[[], float]:
        """A zero-argument draw on ``rng``, equal to ``sample(rng)`` bit
        for bit, draw for draw."""
        return partial(self.sample, rng)

    @property
    def mean(self) -> float:
        """Expected value of the distribution (used in docs/tests)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Fixed(LatencyModel):
    """A constant delay."""

    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError(f"negative latency {self.value}")

    def sample(self, rng: random.Random) -> float:
        return self.value

    def bind(self, rng: random.Random) -> Callable[[], float]:
        return repeat(self.value).__next__

    @property
    def mean(self) -> float:
        return self.value


@dataclass(frozen=True)
class Uniform(LatencyModel):
    """Uniform delay over ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self):
        if not 0 <= self.low <= self.high:
            raise ValueError(f"invalid range [{self.low}, {self.high}]")

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    @property
    def mean(self) -> float:
        return (self.low + self.high) / 2.0


@dataclass(frozen=True)
class ShiftedExponential(LatencyModel):
    """A base delay plus exponential jitter: ``base + Exp(jitter_mean)``.

    This is the standard LAN round-trip model: a propagation/processing
    floor plus a long-ish queuing tail.
    """

    base: float
    jitter_mean: float

    def __post_init__(self):
        if self.base < 0 or self.jitter_mean < 0:
            raise ValueError(
                f"invalid parameters base={self.base} jitter={self.jitter_mean}")

    def sample(self, rng: random.Random) -> float:
        if self.jitter_mean == 0:
            return self.base
        return self.base + rng.expovariate(1.0 / self.jitter_mean)

    def bind(self, rng: random.Random) -> Callable[[], float]:
        base = self.base
        if self.jitter_mean == 0:
            return repeat(base).__next__
        # ``expovariate``'s own formula, in the draw's one frame.
        rate = 1.0 / self.jitter_mean
        uniform = rng.random
        log = math.log
        return lambda: base + -log(1.0 - uniform()) / rate

    @property
    def mean(self) -> float:
        return self.base + self.jitter_mean


@dataclass(frozen=True)
class LogNormal(LatencyModel):
    """Log-normal delay parameterized by its median and sigma.

    Used for heavy-tailed delays such as asynchronous propagation
    scheduling, where most samples are small but a tail stretches out
    (the effect visible in the paper's Figure 7).
    """

    median: float
    sigma: float

    def __post_init__(self):
        if self.median <= 0 or self.sigma < 0:
            raise ValueError(
                f"invalid parameters median={self.median} sigma={self.sigma}")

    def sample(self, rng: random.Random) -> float:
        return rng.lognormvariate(math.log(self.median), self.sigma)

    @property
    def mean(self) -> float:
        return self.median * math.exp(self.sigma ** 2 / 2.0)
