"""Deterministic random-number streams for simulations.

A simulation uses many independent sources of randomness (network jitter,
workload key selection per client, value generation, ...).  Seeding them all
from one ``random.Random`` would entangle their draws: adding a client would
perturb the network jitter sequence.  :class:`RandomStreams` derives an
independent, stable child stream for each *name*, so components draw from
isolated sequences and experiments stay reproducible as they evolve.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RandomStreams", "derive_seed"]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from ``root_seed`` and ``name``."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A factory of named, independent ``random.Random`` streams."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = root_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the (memoized) stream for ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.root_seed, name))
        return self._streams[name]
