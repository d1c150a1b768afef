"""Skew-adaptive view maintenance: heavy/light keys and a hot-row cache.

Figure 8 is the design's weak spot: when updates concentrate on few base
rows, every view-key transition serializes on the per-(view, base key)
chain FIFO and the exclusive propagation lock, the backpressure tokens
fill with queued transitions, and write throughput collapses exactly
where a skewed workload concentrates.  This module implements the
heavy/light partitioning remedy: keep the paper's *eager* pointer-chain
maintenance for the long tail of lightly-updated keys, but switch
frequently-updated keys to *lazy* maintenance.

Heavy/light classification
--------------------------

:class:`UpdateFrequencyTracker` keeps one exponentially-decayed counter
per (view, base key) chain, fed by the records the node's outbox starts
(one ``observe`` per started record).  A chain is *promoted* to heavy when
its decayed count crosses :data:`PROMOTE_THRESHOLD` and *demoted* only
after it falls below the lower :data:`DEMOTE_THRESHOLD` — the
hysteresis band keeps a key from flapping between modes at the
threshold.  Decay follows a half-life: a count ``c`` observed ``dt`` ms
ago contributes ``c * 0.5 ** (dt / half_life)`` now, so classification
tracks the *recent* update rate, not lifetime popularity.

Lazy maintenance (fold + flush)
-------------------------------

A started record for a heavy chain is not propagated: it is *folded*
into the chain's :class:`PendingDelta` — O(1), no scheduling delay, no
lock round trips, no chain walk — and resolved immediately, returning
its backpressure token at once.  Folding is correct because flushing a
delta does not replay the folded updates; it re-drives the base row's
*current* state through the repair path
(:func:`~repro.views.drive.repropagate_row`), which is idempotent
and order-insensitive: whatever mixture of folded, eager, and concurrent
updates landed in the base table, the flush materializes exactly the
LWW winner (intermediate view-key transitions the eager path would have
written as stale rows are simply never materialized).

Deltas flush on two triggers: a periodic *fold tick* (every
:data:`FOLD_INTERVAL` ms while any delta is pending), and
*merge-on-read* — a view Get first flushes every pending delta whose
affected-key set contains the requested view key, so session
read-your-writes barriers keep their meaning (the barrier releases when
the record resolves, i.e. at fold time; the read then forces the fold
to materialize before looking at the view row).

Hot-view cache
--------------

:class:`HotViewCache` is a bounded LRU over view Get results, keyed by
``(view, view key, columns, r)``.  Coherence is driven by the
propagation stream: every view write (eager propagation, delta flush,
scrub repair, backfill) invalidates the written view key via the
maintainer's write hook, and folding invalidates the delta's affected
keys *before* the record resolves, so a barrier-released session read
can never hit a stale entry for its own write.  A per-key version
counter closes the read-through race: a result read before an
invalidation is never stored after it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.errors import (
    CoordinatorCrashError,
    NodeDownError,
    PropagationError,
    QuorumError,
    ViewError,
)
from repro.views.definition import ViewDefinition
from repro.views.drive import repropagate_row
from repro.views.versioned import NULL_VIEW_KEY

__all__ = [
    "UpdateFrequencyTracker",
    "PendingDelta",
    "HotViewCache",
    "SkewService",
]

ChainKey = Tuple[str, Hashable]

# Failures a flush rides out by re-queueing the delta for the next tick,
# this many times before the chain is left to the scrubber.
_FLUSH_RETRIABLE = (PropagationError, QuorumError, NodeDownError,
                    CoordinatorCrashError)
FLUSH_MAX_ATTEMPTS = 12

# The heavy/light policy, part of the maintenance procedure rather than
# an operator's setting (these are the values extension E5 is measured
# under).  A chain turns heavy when its decayed count reaches
# PROMOTE_THRESHOLD and light again below DEMOTE_THRESHOLD; counts
# halve every DECAY_HALF_LIFE ms.  The tracker is per coordinator and
# promotion must beat wedge formation — a chain only folds records
# started *after* it turns heavy — so the threshold sits low (two
# closely spaced starts) and the half-life spans many head-key
# inter-arrivals; tail keys, hundreds of ms apart per node, still decay
# back out.  Pending deltas flush every FOLD_INTERVAL ms.
PROMOTE_THRESHOLD = 2.0
DEMOTE_THRESHOLD = 1.0
DECAY_HALF_LIFE = 800.0
FOLD_INTERVAL = 20.0


class UpdateFrequencyTracker:
    """Decayed per-chain update counters with hysteresis classification.

    One instance per node: it observes the records that node's outbox
    starts, so a chain's count approximates the node-local recent update
    rate (cluster-wide rate divided by the coordinators serving it).
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


class PendingDelta:
    """Folded updates of one heavy (view, base key) chain awaiting flush.

    The delta does not carry folded cell values — a flush re-reads the
    base row and propagates its current state, so the only payload is
    bookkeeping: how many records folded in, which view keys a reader
    must force a flush for, and how many flush attempts failed.
    """

    __slots__ = ("view", "key", "node_id", "folded", "affected_keys",
                 "attempts", "first_folded_at", "last_folded_at",
                 "first_appended_at")

    def __init__(self, view: ViewDefinition, key: Hashable, node_id: int,
                 now: float):
        self.view = view
        self.key = key
        self.node_id = node_id
        self.folded = 0
        self.affected_keys: Set[Any] = set()
        self.attempts = 0
        self.first_folded_at = now
        self.last_folded_at = now
        # Oldest outbox append time folded in: the staleness clock for
        # this chain starts when the earliest unflushed update was
        # acknowledged, not when it was folded.
        self.first_appended_at = now

    @property
    def chain(self) -> ChainKey:
        return (self.view.name, self.key)

    def absorb(self, other: "PendingDelta") -> None:
        """Fold another delta for the same chain into this one (a flush
        failed while new records folded into a fresh delta)."""
        self.folded += other.folded
        self.affected_keys |= other.affected_keys
        self.attempts = max(self.attempts, other.attempts)
        self.first_folded_at = min(self.first_folded_at,
                                   other.first_folded_at)
        self.last_folded_at = max(self.last_folded_at, other.last_folded_at)
        self.first_appended_at = min(self.first_appended_at,
                                     other.first_appended_at)


class HotViewCache:
    """Bounded LRU of view Get results with versioned invalidation."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, List]" = OrderedDict()
        # (view, view_key) -> set of full cache keys (columns/r variants).
        self._by_key: Dict[Tuple[str, Any], Set[Tuple]] = {}
        # (view, view_key) -> version; bumped on every invalidation so a
        # read that began before the invalidation cannot store after it.
        self._versions: Dict[Tuple[str, Any], int] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _full_key(view: str, view_key: Any, columns: Tuple, r: int) -> Tuple:
        return (view, view_key, tuple(columns), r)

    def lookup(self, view: str, view_key: Any, columns: Tuple,
               r: int) -> Optional[List]:
        """A cached result list, or None on miss (counts either way)."""
        if not self.enabled:
            return None
        full = self._full_key(view, view_key, columns, r)
        entry = self._entries.get(full)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(full)
        self.hits += 1
        return list(entry)

    def version(self, view: str, view_key: Any) -> int:
        """The read-through guard token: pass back to :meth:`store`."""
        return self._versions.get((view, view_key), 0)

    def store(self, view: str, view_key: Any, columns: Tuple, r: int,
              token: int, results: List) -> bool:
        """Populate after a miss; dropped if invalidated since ``token``."""
        if not self.enabled:
            return False
        if self._versions.get((view, view_key), 0) != token:
            return False
        full = self._full_key(view, view_key, columns, r)
        self._entries[full] = list(results)
        self._entries.move_to_end(full)
        self._by_key.setdefault((view, view_key), set()).add(full)
        while len(self._entries) > self.capacity:
            evicted, _value = self._entries.popitem(last=False)
            self.evictions += 1
            variants = self._by_key.get((evicted[0], evicted[1]))
            if variants is not None:
                variants.discard(evicted)
                if not variants:
                    del self._by_key[(evicted[0], evicted[1])]
        return True

    def invalidate(self, view: str, view_key: Any) -> None:
        """Drop every cached variant of one view row; bump its version."""
        if not self.enabled:
            return
        key = (view, view_key)
        self._versions[key] = self._versions.get(key, 0) + 1
        variants = self._by_key.pop(key, None)
        if not variants:
            return
        self.invalidations += 1
        for full in variants:
            self._entries.pop(full, None)

    def clear(self) -> None:
        """Drop everything (anti-entropy repair rewrote replicas under
        us; versions are kept so in-flight reads still cannot store)."""
        if not self.enabled:
            return
        for full in self._entries:
            key = (full[0], full[1])
            self._versions[key] = self._versions.get(key, 0) + 1
        self._entries.clear()
        self._by_key.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "entries": len(self._entries),
        }


class SkewService:
    """Heavy/light maintenance and the hot-view cache for one manager.

    Owned by :class:`~repro.views.manager.ViewManager`; consulted from
    each started outbox record (fold-vs-eager decision), the view read path
    (merge-on-read plus the cache), and the observability surface.
    """

    def __init__(self, manager):
        self.manager = manager
        self.cluster = manager.cluster
        self.env = manager.env
        config = manager.config
        self.enabled = config.skew_adaptive
        self.cache = HotViewCache(config.view_cache_capacity)
        self._trackers: Dict[int, UpdateFrequencyTracker] = {}
        self._deltas: Dict[ChainKey, PendingDelta] = {}
        # chain -> (gate event, delta being flushed); readers that need
        # the chain wait on the gate instead of double-flushing.
        self._flushing: Dict[ChainKey, Tuple[Any, PendingDelta]] = {}
        self._idle: Optional[Any] = None
        # Accounting: folded == flushed + dropped + still-pending.
        self.folded_records = 0
        self.flushed_records = 0
        self.dropped_records = 0
        self.flushed_chains = 0
        self.dropped_chains = 0
        self.flush_failures = 0
        self.read_barrier_flushes = 0
        self.tick_flushes = 0
        if self.enabled:
            for node in self.cluster.nodes:
                self._trackers[node.node_id] = UpdateFrequencyTracker(
                    PROMOTE_THRESHOLD, DEMOTE_THRESHOLD, DECAY_HALF_LIFE)
            self.env.process(self._fold_loop(), name="skew-fold-tick")

    # -- classification (started outbox records) ----------------------------

    def should_fold(self, node_id: int, view: ViewDefinition,
                    key: Hashable) -> bool:
        """Observe one started record; True if it should fold (lazy).

        A chain with a delta already pending stays lazy regardless of
        classification: its queued work is cheapest folded into the
        existing delta, and the next flush covers everything at once.
        """
        if not self.enabled:
            return False
        chain = (view.name, key)
        tracker = self._trackers[node_id]
        tracker.observe(chain, self.env.now)
        if chain in self._deltas or chain in self._flushing:
            return True
        return tracker.is_heavy(chain, self.env.now)

    def fold(self, node_id: int, record, gathered) -> PendingDelta:
        """Fold one started outbox record into its chain's delta.

        ``gathered`` is the record's settled ``(responses, extract)``
        list — the pre-update view keys it carries join the delta's
        affected-key set so merge-on-read knows which reads must force
        this chain's flush.  Affected keys are invalidated in the cache
        *before* the caller resolves the record, keeping the session
        barrier honest.
        """
        view, key = record.view, record.key
        chain = (view.name, key)
        delta = self._deltas.get(chain)
        if delta is None:
            delta = PendingDelta(view, key, node_id, self.env.now)
            self._deltas[chain] = delta
            if self._idle is not None and not self._idle.triggered:
                self._idle.succeed()
        delta.folded += 1
        delta.last_folded_at = self.env.now
        delta.first_appended_at = min(delta.first_appended_at,
                                      record.appended_at)
        self.folded_records += 1
        for view_key in self._affected_keys(view, record, gathered):
            delta.affected_keys.add(view_key)
            if view_key != NULL_VIEW_KEY:
                self.cache.invalidate(view.name, view_key)
        return delta

    @staticmethod
    def _affected_keys(view: ViewDefinition, record, gathered) -> Set[Any]:
        """View keys this record can move: its target plus every
        pre-update view key a base replica reported."""
        affected: Set[Any] = set()
        if view.view_key_column in record.update_values:
            raw = record.update_values[view.view_key_column]
            affected.add(raw if view.accepts_key(raw) else NULL_VIEW_KEY)
        for responses, extract in gathered:
            for response in responses:
                cell = extract(response, view.view_key_column)
                if cell is None or cell.timestamp < 0 or cell.tombstone:
                    continue
                raw = cell.value
                affected.add(raw if view.accepts_key(raw) else NULL_VIEW_KEY)
        return affected

    # -- pending-work surface (scrubber, quiescence, invariants) -------------

    def pending_chains(self, view_name: Optional[str] = None) -> int:
        """Deltas awaiting (or currently mid-) flush."""
        chains = list(self._deltas) + list(self._flushing)
        if view_name is None:
            return len(chains)
        return sum(1 for chain in chains if chain[0] == view_name)

    def pending_sources(self, view_name: str
                        ) -> List[Tuple[Hashable, float]]:
        """``(base key, oldest append time)`` per pending/in-flight delta
        for the freshness tracker: every folded-but-unflushed update is a
        staleness source anchored at its earliest acknowledged record."""
        merged: Dict[Hashable, float] = {}
        pending = list(self._deltas.values())
        pending.extend(delta for _gate, delta in self._flushing.values())
        for delta in pending:
            if delta.view.name != view_name:
                continue
            origin = merged.get(delta.key)
            if origin is None or delta.first_appended_at < origin:
                merged[delta.key] = delta.first_appended_at
        return list(merged.items())

    @property
    def heavy_keys(self) -> int:
        """Chains currently classified heavy, summed over nodes."""
        return sum(t.heavy_count for t in self._trackers.values())

    def stats(self) -> Dict[str, Any]:
        return {
            "enabled": self.enabled,
            "folded_records": self.folded_records,
            "flushed_records": self.flushed_records,
            "dropped_records": self.dropped_records,
            "flushed_chains": self.flushed_chains,
            "dropped_chains": self.dropped_chains,
            "flush_failures": self.flush_failures,
            "pending_chains": self.pending_chains(),
            "heavy_keys": self.heavy_keys,
            "promotions": sum(t.promotions for t in self._trackers.values()),
            "demotions": sum(t.demotions for t in self._trackers.values()),
            "read_barrier_flushes": self.read_barrier_flushes,
            "tick_flushes": self.tick_flushes,
            "cache": self.cache.stats(),
        }

    # -- merge-on-read --------------------------------------------------------

    def flush_for_read(self, coordinator, view: ViewDefinition,
                       view_key: Any):
        """Flush every delta that could hide ``view_key``'s live rows.

        A simulation process run by the view Get after its session
        barrier: loops until no pending or in-flight delta's
        affected-key set contains the requested key, so the read
        observes every update whose record has already resolved
        (read-your-writes through lazy maintenance).
        """
        if not self.enabled:
            return
        while True:
            chains = [chain for chain, delta in self._deltas.items()
                      if chain[0] == view.name
                      and view_key in delta.affected_keys]
            gates = [gate for chain, (gate, delta) in self._flushing.items()
                     if chain[0] == view.name
                     and view_key in delta.affected_keys]
            if not chains and not gates:
                return
            for chain in chains:
                self.read_barrier_flushes += 1
                yield from self._flush_chain(coordinator, chain)
            for gate in gates:
                if not gate.triggered:
                    yield gate

    # -- flushing -------------------------------------------------------------

    def _fold_loop(self):
        """Background fold tick: flush pending deltas every interval.

        Blocks on an unscheduled event while no delta is pending so an
        idle cluster still reaches ``run_until_idle`` quiescence.
        """
        while True:
            if not self._deltas and not self._flushing:
                self._idle = self.env.event()
                yield self._idle
                self._idle = None
            yield self.env.timeout(FOLD_INTERVAL)
            for chain in list(self._deltas):
                delta = self._deltas.get(chain)
                if delta is None:
                    continue
                coordinator = self._coordinator_for(delta)
                if coordinator is None:
                    continue  # every node down; retry next tick
                self.tick_flushes += 1
                yield from self._flush_chain(coordinator, chain)

    def _coordinator_for(self, delta: PendingDelta):
        """The folding node's coordinator, or any alive fallback."""
        node = self.cluster.nodes[delta.node_id]
        if not node.is_down:
            return self.cluster.coordinator(delta.node_id)
        for other in self.cluster.nodes:
            if not other.is_down:
                return self.cluster.coordinator(other.node_id)
        return None

    def _flush_chain(self, coordinator, chain: ChainKey):
        """Flush one chain: repropagate the base row's current state.

        On a retriable failure the delta re-queues (merging with any
        records folded meanwhile) until :data:`FLUSH_MAX_ATTEMPTS`,
        after which it is dropped — the chain is then ordinary
        divergence for the scrubber, exactly like an abandoned eager
        propagation.
        """
        in_flight = self._flushing.get(chain)
        if in_flight is not None:
            # Another process is mid-flush for this chain.  Starting a
            # second flush would clobber its ``_flushing`` entry; wait
            # for its gate instead.  Any delta queued meanwhile stays in
            # ``_deltas`` — the next tick (or the read-barrier loop)
            # picks it up.
            gate = in_flight[0]
            if not gate.triggered:
                yield gate
            return
        delta = self._deltas.pop(chain, None)
        if delta is None:
            return
        gate = self.env.event()
        self._flushing[chain] = (gate, delta)
        try:
            yield from repropagate_row(self.manager, coordinator,
                                       delta.view, delta.key)
        except _FLUSH_RETRIABLE:
            delta.attempts += 1
            self.flush_failures += 1
            if delta.attempts >= FLUSH_MAX_ATTEMPTS:
                self.dropped_records += delta.folded
                self.dropped_chains += 1
                self.manager.freshness.note_wound(
                    chain[0], chain[1], delta.first_appended_at,
                    "flush-dropped")
                self.cluster.trace(
                    "skew", "delta dropped after failed flushes",
                    view=chain[0], key=chain[1], folded=delta.folded)
            else:
                newer = self._deltas.get(chain)
                if newer is not None:
                    newer.absorb(delta)
                else:
                    self._deltas[chain] = delta
        except ViewError:
            # Structural wedge (e.g. a chain cycle mid-repair): treat
            # like attempt exhaustion — scrubber territory.
            self.dropped_records += delta.folded
            self.dropped_chains += 1
            self.flush_failures += 1
            self.manager.freshness.note_wound(
                chain[0], chain[1], delta.first_appended_at,
                "flush-dropped")
        else:
            self.flushed_records += delta.folded
            self.flushed_chains += 1
            self.cluster.trace("skew", "delta flushed", view=chain[0],
                               key=chain[1], folded=delta.folded)
        finally:
            del self._flushing[chain]
            gate.succeed()
