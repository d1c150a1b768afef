"""Skew-adaptive view maintenance: the heavy/light key classifier.

Figure 8 is the design's weak spot: when updates concentrate on few base
rows, every view-key transition serializes on the per-(view, base key)
chain FIFO and the exclusive propagation lock, the backpressure tokens
fill with queued transitions, and write throughput collapses exactly
where a skewed workload concentrates.  The remedy is heavy/light
partitioning: one maintenance procedure with a threshold.  This module
is the threshold; the procedure is the outbox's.

Heavy/light classification
--------------------------

:class:`UpdateFrequencyTracker` keeps one exponentially-decayed counter
per (view, base key) chain, fed by the records appended to the node's
outbox (one ``observe`` per record, made by ``ViewManager.base_put``
before the append).  A chain is *promoted* to heavy when its decayed
count crosses :data:`PROMOTE_THRESHOLD` and *demoted* only after it
falls below the lower :data:`DEMOTE_THRESHOLD` — the hysteresis band
keeps a key from flapping between modes at the threshold.  Decay
follows a half-life: a count ``c`` observed ``dt`` ms ago contributes
``c * 0.5 ** (dt / half_life)`` now, so classification tracks the
*recent* update rate, not lifetime popularity.

What heavy means
----------------

A record appended for a heavy chain takes no backpressure token and
*folds*: :class:`~repro.views.outbox.NodeOutbox` coalesces it
unconditionally (see *Folding* there), and the one survivor — after
waiting :data:`FOLD_INTERVAL` ms for riders — runs like any record and
converges the chain on the base row's *current* state.  That is
idempotent and order-insensitive: whatever mixture of folded, eager and
concurrent updates landed in the base table, the view ends at the LWW
winner (intermediate view-key transitions an eager chain would have
left as stale rows are never materialized).  Riders resolve when the
survivor does, so session offsets stay exact.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Set, Tuple

from repro.views.definition import ViewDefinition

__all__ = ["UpdateFrequencyTracker", "SkewService"]

ChainKey = Tuple[str, Hashable]

# The heavy/light policy, part of the maintenance procedure rather than
# an operator's setting (these are the values extension E5 is measured
# under).  A chain turns heavy when its decayed count reaches
# PROMOTE_THRESHOLD and light again below DEMOTE_THRESHOLD; counts
# halve every DECAY_HALF_LIFE ms.  The tracker is per coordinator and
# promotion must beat wedge formation — a chain only folds records
# appended *after* it turns heavy — so the threshold sits low (two
# closely spaced appends) and the half-life spans many head-key
# inter-arrivals; tail keys, hundreds of ms apart per node, still decay
# back out.  A started heavy record takes riders for FOLD_INTERVAL ms.
PROMOTE_THRESHOLD = 2.0
DEMOTE_THRESHOLD = 1.0
DECAY_HALF_LIFE = 800.0
FOLD_INTERVAL = 20.0


class UpdateFrequencyTracker:
    """Decayed per-chain update counters with hysteresis classification.

    One instance per node: it observes the records appended to that
    node's outbox, so a chain's count approximates the node-local recent
    update rate (cluster-wide rate divided by the coordinators serving
    it).
    """

    def __init__(self, promote_threshold: float, demote_threshold: float,
                 half_life: float):
        if half_life <= 0:
            raise ValueError("half_life must be positive")
        if demote_threshold > promote_threshold:
            raise ValueError(
                "demote_threshold must be <= promote_threshold")
        self.promote_threshold = promote_threshold
        self.demote_threshold = demote_threshold
        self.half_life = half_life
        # chain -> (decayed count, last observation time).
        self._counts: Dict[ChainKey, Tuple[float, float]] = {}
        self._heavy: Set[ChainKey] = set()
        self.promotions = 0
        self.demotions = 0

    def _decayed(self, chain: ChainKey, now: float) -> float:
        entry = self._counts.get(chain)
        if entry is None:
            return 0.0
        count, last = entry
        if now <= last:
            return count
        return count * 0.5 ** ((now - last) / self.half_life)

    def observe(self, chain: ChainKey, now: float) -> float:
        """Record one update for ``chain``; returns the decayed count."""
        count = self._decayed(chain, now) + 1.0
        self._counts[chain] = (count, now)
        self._classify(chain, count)
        return count

    def is_heavy(self, chain: ChainKey, now: float) -> bool:
        """Current classification (re-evaluating decay, no increment)."""
        if chain in self._heavy:
            self._classify(chain, self._decayed(chain, now))
        return chain in self._heavy

    def _classify(self, chain: ChainKey, count: float) -> None:
        if chain in self._heavy:
            if count < self.demote_threshold:
                self._heavy.discard(chain)
                self.demotions += 1
        elif count >= self.promote_threshold:
            self._heavy.add(chain)
            self.promotions += 1

    @property
    def heavy_count(self) -> int:
        """Chains currently classified heavy."""
        return len(self._heavy)


class SkewService:
    """The heavy/light classifier of one manager.

    Owned by :class:`~repro.views.manager.ViewManager`; consulted by
    ``base_put`` before each outbox append (:meth:`observe`) and by the
    observability surface.
    """

    def __init__(self, manager):
        self.env = manager.env
        self.enabled = manager.config.skew_adaptive
        self._trackers: Dict[int, UpdateFrequencyTracker] = {}
        if self.enabled:
            for node in manager.nodes:
                self._trackers[node.node_id] = UpdateFrequencyTracker(
                    PROMOTE_THRESHOLD, DEMOTE_THRESHOLD, DECAY_HALF_LIFE)

    def observe(self, node_id: int, view: ViewDefinition,
                key: Hashable) -> bool:
        """Count one update of ``(view, key)`` arriving at ``node_id``;
        True if its record should be appended as heavy."""
        if not self.enabled:
            return False
        chain = (view.name, key)
        tracker = self._trackers[node_id]
        tracker.observe(chain, self.env.now)
        return tracker.is_heavy(chain, self.env.now)

    @property
    def heavy_keys(self) -> int:
        """Chains currently classified heavy, summed over nodes."""
        return sum(t.heavy_count for t in self._trackers.values())

    def stats(self) -> Dict[str, Any]:
        return {
            "enabled": self.enabled,
            "heavy_keys": self.heavy_keys,
            "promotions": sum(t.promotions for t in self._trackers.values()),
            "demotions": sum(t.demotions for t in self._trackers.values()),
        }
