"""Host-speed reference loop and the normalisation it drives.

This sandbox's host speed drifts by tens of percent within a minute, so
raw wall time cannot carry a comparison.  Every timed stretch of the
benchmark is therefore cut into segments, a fixed pure-Python loop runs
before and after each one, and the segment's wall time is rescaled by
``REF_LOOP_S_NOMINAL / mean(ref_before, ref_after)`` — i.e. reported as
if the host had run at the speed at which the loop takes its nominal
time.  The loop does what the simulator's hot path does (heap push/pop,
dict get/set, generator ``send``) so both slow down together.
"""

from __future__ import annotations

import heapq
import json
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable, List

FROZEN = json.loads((Path(__file__).parent / "frozen.json").read_text())
REF_LOOP_S_NOMINAL: float = FROZEN["ref_loop_s_nominal"]

_LOOP_ITEMS = 32_000


def _echo():
    value = None
    while True:
        value = yield value


def ref_loop() -> float:
    """Run the fixed reference workload once; returns its wall seconds.

    The loop creates no object the cycle collector tracks (floats and
    ints only), so it can neither trigger a collection of the
    simulator's heap — which would time the heap, not the host — nor
    leave allocation debt behind for the next segment to pay.
    """
    start = time.perf_counter()
    heap: list = []
    table: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    gen = _echo()
    send = gen.send
    send(None)
    for i in range(_LOOP_ITEMS):
        key = (i * 7919) % 4093
        push(heap, key + i * 1e-6)
        table[key] = table.get(key, 0) + 1
        send(i)
        if i & 1:
            pop(heap)
    while heap:
        pop(heap)
    return time.perf_counter() - start


@dataclass
class Segment:
    """One timed stretch: raw wall time bracketed by two reference loops."""

    wall_s: float
    ref_before_s: float
    ref_after_s: float
    sim_start: float = 0.0
    sim_end: float = 0.0
    ops: int = 0

    @property
    def speed_factor(self) -> float:
        """> 1 when the host ran slower than nominal around this segment."""
        return (self.ref_before_s + self.ref_after_s) / 2 / REF_LOOP_S_NOMINAL

    @property
    def norm_s(self) -> float:
        """Wall time rescaled to the nominal host speed."""
        return self.wall_s / self.speed_factor


class Stopwatch:
    """Produces :class:`Segment`s, sharing one reference loop between
    the end of a segment and the start of the next."""

    def __init__(self):
        self.segments: List[Segment] = []
        self._ref = ref_loop()

    def time(self, work: Callable[[], None]) -> Segment:
        """Run ``work()`` as one segment."""
        start = time.perf_counter()
        work()
        wall = time.perf_counter() - start
        ref_after = ref_loop()
        segment = Segment(wall, self._ref, ref_after)
        self._ref = ref_after
        self.segments.append(segment)
        return segment


def speed_summary(segments: List[Segment]) -> dict:
    """How far the host wandered while ``segments`` ran."""
    factors = [s.speed_factor for s in segments]
    refs = [s.ref_before_s for s in segments] + [segments[-1].ref_after_s]
    return {
        "ref_loop_s_median": median(refs),
        "ref_loop_s_min": min(refs),
        "ref_loop_s_max": max(refs),
        "speed_factor_min": min(factors),
        "speed_factor_max": max(factors),
    }


if __name__ == "__main__":
    times = sorted(ref_loop() for _ in range(41))
    print(f"ref_loop_s min={times[0]:.5f} median={times[20]:.5f} "
          f"max={times[-1]:.5f} (nominal {REF_LOOP_S_NOMINAL})")
