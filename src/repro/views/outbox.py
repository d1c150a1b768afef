"""Per-node update log for view propagation (the transactional outbox).

Algorithm 1 acknowledges a base Put at W replicas and drives view
maintenance asynchronously.  The outbox decouples the two
halves completely: the Put path *appends* a record describing the
committed update to its coordinator node's :class:`NodeOutbox`, and the
log hands each record back to be *started* — one process per record,
running ``PropagateUpdate`` (Algorithm 2) — the moment its ``(view,
key)`` chain is free.  The queue between the two is what absorbs
bursts: writes keep acking at storage speed while the backlog levels
the maintenance load over time.

Log format
----------

Records are totally ordered per node by ``seq`` (1-based, dense).  One
record describes one Put's effect on one view:

``(seq, view, table, key, update_values, base_ts, sources)``

``update_values`` are the Put's watched columns as raw application
values (``None`` for tombstones); ``sources`` are the response
collectors of the base-row round trips that observed the pre-update
view keys in each response's ``cells`` (Algorithm 1's guesses are
read from them when the record runs, after every replica has answered
or timed out).  A Put that skipped that read, its chain pristine or
its coordinator holding the live row, appends ``None`` for a source
(``views.drive.skips_base_read``), and so does a plain Put that finds,
once its write acks, a view registered meanwhile
(``ViewManager.append_records``).

Coalescing rule
---------------

Records of one ``(view, key)`` chain run one at a time, in seq order;
the ones appended while an earlier one runs are *parked* behind it.  Two
parked records of a chain are redundant when the newer one *subsumes*
the older: it carries at least the same columns, at an
equal-or-later ``base_ts``, and — when the view key is
among them — the same *effective* view key (after the selection
predicate maps rejected/NULL values to the NULL anchor).  Skipping the
older record then leaves the view in exactly the state LWW would have
produced, without consuming a propagation: same live row, same stale
rows, same cell timestamps from the winner.  Updates that *move* the
row between view keys are never coalesced — each transition writes a
distinct stale row that Algorithm 4 readers and the oracle both expect.

The superseded record is not dropped silently: it becomes a *rider* on
the winner, and its completion event resolves when the winner's
propagation does, so a session barrier waiting on the older record's
completion stays exact.

Folding
-------

A record appended as *heavy* (its chain is frequently updated on this
node, :mod:`repro.views.skew`) coalesces unconditionally.  It supersedes
the chain's newest parked record whether or not it subsumes it, and
when nothing is parked behind a started heavy record that is still
``open`` — waiting out its fold window, not yet working — it rides on
that one instead.  A survivor that absorbed a record it does not
subsume is ``folded``: it cannot replay what it stands for, so whoever
runs it re-drives the base row's current state rather than its own
update (:func:`repro.views.drive.process_record`).  Intermediate view-key
transitions of a folded chain are never materialized; LWW makes the
live row the same.

Backpressure and workers
------------------------

The log is bounded by ``max_pending_propagations`` tokens per node
(counting parked *and* started records): producers ``yield
backpressure.acquire()`` before appending, so base Puts block — rather
than queue unboundedly — once the node's maintenance backlog is full.
Coalescing releases the superseded record's token immediately, which is
what lets a hot key absorb an arbitrarily long burst in bounded space.
Heavy records hold no token — a chain has at most a started one and a
parked one per node, however many Puts they stand for — and are counted
in ``token_free`` instead of ``depth``.  ``depth + token_free``, summed
over nodes, is the one pending count
(``ViewManager.pending_propagations``); the outbox keeps no per-view
tally.

How many started records *work* at once is the node's finite
maintenance capacity: :data:`WORKERS` worker slots (``workers``), which
a record takes before it does anything and gives back when it finishes
— and also for the length of every retry backoff sleep, because a
record sleeping until its predecessor's row appears must not keep that
predecessor (often another node's record) from getting a worker.  For
that long its chain is in ``sleeping``, and the scrubber does not count
it as work in flight (:meth:`NodeOutbox.working`, read by
``ViewManager.chain_epoch`` alone): its predecessor may have been lost
to a crash, and then the row it waits for is one only the scrubber's
repair writes.

Starting is at-most-once *by design*: a record leaves the pending log
when it starts, before its propagation runs, so a coordinator crash
mid-propagation loses the update exactly as the paper's prototype would
(Section VIII) — that divergence window is what the repair scrubber
exists to close.  A lost record still resolves (failed), which is what
releases the session barriers waiting on its completion.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.common.records import ColumnName
from repro.sim.kernel import Environment, Event
from repro.sim.resources import Semaphore
from repro.views.definition import ViewDefinition
from repro.views.versioned import NULL_VIEW_KEY

__all__ = ["OutboxRecord", "NodeOutbox", "WORKERS"]

# Records per node that may be working (not parked, not sleeping in a
# retry backoff) at once.  More lets maintenance bursts queue ahead of
# client operations on the node's FIFO CPU.
WORKERS = 2


class OutboxRecord:
    """One committed base update awaiting propagation to one view."""

    __slots__ = ("seq", "view", "table", "key", "update_values", "base_ts",
                 "sources", "completion", "riders", "superseded",
                 "appended_at", "heavy", "open", "folded")

    def __init__(self, seq: int, view: ViewDefinition, table: str,
                 key: Hashable, update_values: Dict[ColumnName, Any],
                 base_ts: int, source: Optional[object],
                 completion: Event, appended_at: float = 0.0,
                 heavy: bool = False):
        self.seq = seq
        self.view = view
        self.table = table
        self.key = key
        self.update_values = update_values
        self.base_ts = base_ts
        # Simulated append time: the freshness subsystem measures a
        # record's staleness contribution from here until it resolves.
        self.appended_at = appended_at
        # Collectors of view-key reads, None for a Put that skipped its
        # read; grows when superseded records fold their observed
        # view-key versions into the winner's guess set.
        self.sources: List[Optional[object]] = [source]
        self.completion = completion
        self.riders: List[Event] = []
        self.superseded = False
        # Folding (module docstring): a heavy record holds no token and
        # is ``open`` to riders until whoever runs it closes its window;
        # ``folded`` once it stands for an update it does not subsume.
        self.heavy = heavy
        self.open = heavy
        self.folded = False

    @property
    def chain_key(self) -> Tuple[str, Hashable]:
        """The per-(view, base key) serialization domain."""
        return (self.view.name, self.key)

    def _effective_view_key(self) -> Any:
        raw = self.update_values[self.view.view_key_column]
        return raw if self.view.accepts_key(raw) else NULL_VIEW_KEY

    def supersedes(self, old: "OutboxRecord") -> bool:
        """True if propagating only ``self`` leaves the view exactly as
        propagating ``old`` then ``self`` would (the coalescing rule)."""
        if old.base_ts > self.base_ts:
            return False
        if not set(old.update_values) <= set(self.update_values):
            return False
        if self.view.view_key_column in old.update_values:
            # A view-key *transition* writes a stale row readers expect;
            # only same-destination refreshes are redundant.
            if old._effective_view_key() != self._effective_view_key():
                return False
        return True

    def resolve(self, exc: Optional[BaseException] = None) -> None:
        """Fire the completion event (and any riders') with the outcome.

        Failures are defused first: lost/abandoned propagations are
        expected outcomes recorded in the manager's counters, not
        simulation errors.
        """
        for event in (self.completion, *self.riders):
            if event.triggered:
                continue
            if exc is None:
                event.succeed()
            else:
                event.defuse()
                event.fail(exc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = " superseded" if self.superseded else ""
        return (f"<OutboxRecord #{self.seq} {self.view.name}:{self.key!r} "
                f"ts={self.base_ts}{flag}>")


class NodeOutbox:
    """The bounded per-node update log behind one coordinator."""

    def __init__(self, env: Environment, node_id: int, capacity: int):
        self.env = env
        self.node_id = node_id
        self.capacity = capacity
        # Producers acquire before appending; a record's token returns
        # when it resolves (and coalescing releases the loser's token).
        self.backpressure = Semaphore(env, tokens=capacity)
        self.workers = Semaphore(env, tokens=WORKERS)
        # A heavy record's admission, taken by the record itself once
        # its window is over: no Put waits for it, so heavy records work
        # one at a time and the other worker stays with the records
        # clients are blocked on.  One waiting its turn is still open —
        # a busy node folds more per survivor, not more survivors.
        self.heavy_turn = Semaphore(env, tokens=1)
        # chain_key -> the chain's started record, then the records
        # parked behind it; a chain has an entry exactly while one runs.
        self._chains: Dict[Tuple[str, Hashable], deque] = {}
        # seq -> (view name, base key, appended_at) of every
        # appended-but-unresolved record, not the record (whose pending
        # completion's callback would then reach back here); the
        # freshness tracker derives per-view staleness and lagging key
        # sets from this (records leave on resolve, riders included).
        self._unresolved: Dict[int, Tuple[str, Hashable, float]] = {}
        # Observability.
        self.appended = 0          # == last assigned seq
        self.coalesced = 0
        self.folded = 0            # coalesced without being subsumed
        self.depth = 0             # parked + started records with a token
        self.max_depth = 0
        self.token_free = 0        # parked + started heavy records
        self.max_token_free = 0
        # Chains whose started record sleeps in a retry backoff with its
        # worker slot given back (views.drive keeps the set).
        self.sleeping: Set[Tuple[str, Hashable]] = set()
        # Lifetime appends per (view, base key) chain: the producer-side
        # hot-key ranking ``outbox_stats()`` reports for skew auditing,
        # and half of a chain's epoch (``ViewManager.chain_epoch``).
        self.chain_appends: Dict[Tuple[str, Hashable], int] = {}

    # -- producer side -----------------------------------------------------

    def append(self, view: ViewDefinition, table: str, key: Hashable,
               update_values: Dict[ColumnName, Any], base_ts: int,
               source: Optional[object], completion: Event,
               heavy: bool = False) -> Tuple[OutboxRecord, bool]:
        """Append one record (caller holds a backpressure token, unless
        the record is ``heavy``); returns it, and True if its chain was
        free: the caller starts it then.

        Attempts to coalesce with the newest parked record of the same
        ``(view, key)`` chain; on success the older record is marked
        superseded, rides on the new one, and its token is released.
        A heavy record coalesces unconditionally, or rides on the
        started record whose window is open (module docstring,
        *Folding*).
        """
        self.appended += 1
        record = OutboxRecord(self.appended, view, table, key,
                              dict(update_values), base_ts, source,
                              completion, appended_at=self.env._now,
                              heavy=heavy)
        unresolved = self._unresolved
        seq = record.seq
        unresolved[seq] = (view.name, key, record.appended_at)
        completion.add_callback(lambda _event: unresolved.pop(seq, None))
        chain = record.chain_key
        self.chain_appends[chain] = self.chain_appends.get(chain, 0) + 1
        queue = self._chains.get(chain)
        if queue is None:
            queue = self._chains[chain] = deque()
        elif len(queue) == 1:
            # The started record is no coalesce target, except for a
            # heavy record while its fold window is open.
            started = queue[0]
            if heavy and started.open:
                record.superseded = True
                started.riders.append(completion)
                started.folded = True
                self.coalesced += 1
                self.folded += 1
                return record, False
        else:
            target = queue[-1]
            subsumes = record.supersedes(target)
            if subsumes or heavy:
                target.superseded = True
                record.sources = target.sources + record.sources
                record.riders = [*target.riders, target.completion]
                target.riders = []
                record.folded = target.folded or not subsumes
                if heavy:
                    # The survivor dates from the oldest update it
                    # stands for (staleness, wound origin).
                    record.appended_at = target.appended_at
                    unresolved[seq] = (view.name, key, target.appended_at)
                self.coalesced += 1
                self.folded += not subsumes
                self._count(target, -1)
                if not target.heavy:
                    self.backpressure.release()
                queue.pop()
        queue.append(record)
        self._count(record, +1)
        return record, len(queue) == 1

    def done(self, record: OutboxRecord) -> Optional[OutboxRecord]:
        """Finish a started record; returns its chain's next parked
        record, for the caller to start (superseded ones left the queue
        when they were coalesced), or None."""
        queue = self._chains[record.chain_key]
        queue.popleft()
        self._count(record, -1)
        if queue:
            return queue[0]
        del self._chains[record.chain_key]
        return None

    def _count(self, record: OutboxRecord, sign: int) -> None:
        """One record entering (+1) or leaving (-1) the chain queues."""
        if record.heavy:
            self.token_free += sign
            if self.token_free > self.max_token_free:
                self.max_token_free = self.token_free
        else:
            self.depth += sign
            if self.depth > self.max_depth:
                self.max_depth = self.depth

    @property
    def lag(self) -> int:
        """Records appended but not yet resolved (riders included)."""
        return len(self._unresolved)

    def working(self, chain: Tuple[str, Hashable]) -> bool:
        """True while ``chain`` has a started record here that is not
        asleep in a retry backoff."""
        return chain in self._chains and chain not in self.sleeping

    def unresolved_for(self, view_name: str
                       ) -> List[Tuple[Hashable, float]]:
        """``(base_key, appended_at)`` of every unresolved record for
        ``view_name`` (riders of coalesced winners included — they are
        distinct acknowledged updates whose effects are still pending)."""
        return [(key, appended_at)
                for name, key, appended_at in self._unresolved.values()
                if name == view_name]
