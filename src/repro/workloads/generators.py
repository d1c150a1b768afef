"""Workload generators: key choosers and value factories.

Key choosers encapsulate the access skew of a workload: uniform over a
population (the paper's read/write experiments), a restricted key range
(the update-skew experiment, Figure 8), or Zipfian (``ext_skew`` and
the skew scenarios).
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Hashable, List

__all__ = [
    "KeyChooser",
    "UniformKeys",
    "RangeKeys",
    "ZipfianKeys",
    "value_string",
]


class KeyChooser:
    """Base class: picks a key per operation from an injected RNG."""

    def choose(self, rng: random.Random) -> Hashable:
        raise NotImplementedError

    @property
    def population(self) -> int:
        """Number of distinct keys this chooser can produce."""
        raise NotImplementedError


class UniformKeys(KeyChooser):
    """Uniform over ``count`` integer keys ``0..count-1``."""

    def __init__(self, count: int):
        if count < 1:
            raise ValueError("count must be >= 1")
        self.count = count

    def choose(self, rng: random.Random) -> int:
        return rng.randrange(self.count)

    @property
    def population(self) -> int:
        return self.count


class RangeKeys(KeyChooser):
    """Uniform over a *width*-sized window of keys (Figure 8's ranges).

    All clients share the same window, so narrowing ``width`` increases
    per-row contention exactly as in the paper's skew experiment.
    """

    def __init__(self, width: int, start: int = 0):
        if width < 1:
            raise ValueError("width must be >= 1")
        self.width = width
        self.start = start

    def choose(self, rng: random.Random) -> int:
        return self.start + rng.randrange(self.width)

    @property
    def population(self) -> int:
        return self.width


class ZipfianKeys(KeyChooser):
    """Zipfian skew over ``count`` keys with exponent ``theta``.

    Standard inverse-CDF sampling over the precomputed harmonic weights;
    rank 0 is the hottest key.
    """

    def __init__(self, count: int, theta: float = 0.99):
        if count < 1:
            raise ValueError("count must be >= 1")
        if theta <= 0:
            raise ValueError("theta must be positive")
        self.count = count
        self.theta = theta
        weights = [1.0 / math.pow(rank + 1, theta) for rank in range(count)]
        total = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0

    def choose(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cdf, rng.random())

    @property
    def population(self) -> int:
        return self.count


_VALUE_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


def value_string(rng: random.Random, length: int = 16) -> str:
    """A random payload string of the given length.

    Uses one bulk ``choices`` draw instead of per-character ``choice``
    calls; payload generation is on the critical path of every simulated
    write.
    """
    return "".join(rng.choices(_VALUE_ALPHABET, k=length))
