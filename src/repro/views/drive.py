"""Driving propagation: from a started outbox record to a converged chain.

:mod:`repro.views.maintenance` performs *one* ``PropagateUpdate``
against *one* view-key guess.  This module is what runs around it
(Algorithm 1 lines 4-7): the process a node's
:class:`~repro.views.outbox.NodeOutbox` starts per record, the guess
set built from the base-row replicas' answers, and the retry loop over
those guesses.
:func:`repropagate_row` is the same loop aimed at a base row's *current*
state: the "converge this chain" primitive behind folded records
(:mod:`repro.views.outbox`) and scrub repair (:mod:`repro.repair`),
which is also how a view created over a populated table is loaded.
Every function takes the
:class:`~repro.views.manager.ViewManager` whose counters, RNG stream
and services it uses.

The freshness tracker hears only outcomes from here, never that a run
has begun: a started record that fails opens a wound
(``_EXPECTED_FAILURES``), and a committed :func:`repropagate_row` heals
one.  A record still running needs no report, even one whose move a
``QuorumError`` cut short: its own ``outbox-lag`` source covers it
until it resolves.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.common.records import Cell, ColumnName
from repro.errors import (
    CoordinatorCrashError,
    PropagationError,
    QuorumError,
)
from repro.views import skew
from repro.views.definition import NEXT_COLUMN, ViewDefinition
from repro.views.maintenance import ViewKeyGuess
from repro.views.outbox import NodeOutbox
from repro.views.versioned import PHASE_STALE, view_column, view_timestamp

__all__ = ["process_record", "skips_base_read", "propagate_with_retries",
           "repropagate_row", "MAX_ROUNDS", "RETRY_BACKOFF",
           "RETRY_BACKOFF_CAP"]

# Rounds of guesses (or of base reads, for a re-drive) before a
# propagation is abandoned to the scrubber: about 1.5 s of backoff.
MAX_ROUNDS = 200

# Backoff between rounds of view-key-guess retries (ms): the first
# retry waits up to RETRY_BACKOFF, doubling per round up to
# RETRY_BACKOFF_CAP (see _retry_delay).
RETRY_BACKOFF = 0.5
RETRY_BACKOFF_CAP = 8.0

# How a started record can fail without failing the simulation, first
# match wins: (exception, manager counter to bump, wound provenance,
# trace message).  Each is an expected outcome the scrubber heals.
_EXPECTED_FAILURES = (
    # The record left the log when it started (at-most-once): the crash
    # models a coordinator dying with the propagation only in its
    # volatile state, so the work is simply lost — no retry.
    (CoordinatorCrashError, "lost_propagations",
     "crash-lost", "lost to coordinator crash"),
    # Retries exhausted: the chain entry point this propagation needs
    # never appeared — e.g. its predecessor's propagation was itself
    # lost to a crash, so no guess is ever valid.
    (PropagationError, "abandoned_propagations",
     "retries-abandoned", "abandoned after retries"),
)


def process_record(manager, outbox: NodeOutbox, record):
    """Propagate one started outbox record (Algorithm 1 lines 4-7); the
    process ``ViewManager.start_record`` spawns.  It starts the chain's
    next record when it ends, unless it was closed
    (``Environment.close``): a closed propagation starts nothing."""
    view, key, base_ts = record.view, record.key, record.base_ts
    if record.heavy:
        # The fold window: appends to the chain ride on this record
        # (NodeOutbox.append) until it starts working, which is after
        # FOLD_INTERVAL and then in turn, one heavy record per node.
        yield manager.env.timeout(skew.FOLD_INTERVAL)
        yield outbox.heavy_turn.acquire()
    # The node's maintenance capacity: held from here to the end, except
    # across backoff sleeps (see _back_off).
    yield outbox.workers.acquire()
    record.open = False
    try:
        # Gather guesses from every source round trip (Alg. 1:
        # propagation starts only after the Get has heard from all
        # copies of the base row, or timed out).  A coalesced record
        # carries its riders' sources too, widening the guess set.
        # A Put that skipped its read (skips_base_read) has no collector.
        gathered = []
        for collector in record.sources:
            if collector is not None:
                gathered.append((yield collector.settled))
        # Scheduling delay: maintenance work queues behind other
        # maintenance work.
        yield manager.env.timeout(
            manager.config.propagation_delay.sample(manager._rng))
        coordinator = manager.coordinators[outbox.node_id]
        _maybe_crash(manager, coordinator, view, key, base_ts)

        if record.folded:
            # The record stands for updates it cannot replay; all of
            # them are in the base row by now, so converge the chain on
            # that.
            manager.tracer.emit("propagation", "re-driving current state",
                                view=view.name, key=key, ts=base_ts,
                                riders=len(record.riders))
            yield from _redrive(manager, coordinator, view, key, outbox)
        else:
            guesses = _merge_guesses(
                ViewKeyGuess.from_cell(
                    view, response.cells.get(view.view_key_column))
                for responses in gathered for response in responses)
            if (manager.skew.enabled or len(gathered) < len(record.sources)
                    or view.name in manager.maintainer.backfilled):
                # The row a guess names may have been folded away on
                # another node, or skipped by a load's re-drive, and
                # never be written, and a Put that skipped its read
                # named none: rather than sleep on for it, end every
                # round at the entry points that need no luck.
                guesses.extend(_sure_guesses(manager, outbox, view, key))
            yield from propagate_with_retries(
                manager, coordinator, view, record.table, key, guesses,
                record.update_values, base_ts, outbox=outbox)
        manager.completed_propagations += 1
        if manager.tracer.enabled:
            manager.tracer.emit("propagation", "completed", view=view.name,
                                key=key, ts=base_ts)
        record.resolve()
    except Exception as exc:
        failure = next((entry for entry in _EXPECTED_FAILURES
                        if isinstance(exc, entry[0])), None)
        if failure is not None:
            _type, counter, provenance, message = failure
            setattr(manager, counter, getattr(manager, counter) + 1)
            manager.freshness.note_wound(view.name, key, record.appended_at,
                                         provenance)
            manager.tracer.emit("propagation", message, view=view.name,
                                key=key, ts=base_ts)
        record.resolve(exc)
        if failure is None:
            raise
    finally:
        outbox.workers.release()
        following = outbox.done(record)
        # What admitted the record: its Put's token, or its own turn.
        (outbox.heavy_turn if record.heavy
         else outbox.backpressure).release()
    if following is not None:
        manager.start_record(outbox, following)


def _redrive(manager, coordinator, view: ViewDefinition, key: Hashable,
             outbox: NodeOutbox):
    """:func:`repropagate_row` for a started record: a base read that
    misses its quorum is one more failed round, not the end."""
    rounds = 0
    while True:
        try:
            yield from repropagate_row(manager, coordinator, view, key,
                                       outbox=outbox)
            return
        except QuorumError as exc:
            rounds += 1
            if rounds >= MAX_ROUNDS:
                raise PropagationError(
                    f"base row {key!r} could not be read to re-drive view "
                    f"{view.name!r} after {rounds} rounds") from exc
        yield from _back_off(manager, view, key, outbox, rounds)


def _sure_guesses(manager, outbox: NodeOutbox, view: ViewDefinition,
                  key: Hashable) -> List[ViewKeyGuess]:
    """Chain entry points that exist whatever has propagated, nearest
    first: the row this node's last move made live, if it holds one,
    then the never-written NULL, whose anchor is as many hops from the
    live row as the row has moved since the last serialized walk from
    it repointed it (see :func:`repropagate_row`)."""
    held = manager.maintainer.held_row(outbox.node_id, view, key)
    pristine = ViewKeyGuess.from_cell(view, None)
    return ([pristine] if held is None
            else [ViewKeyGuess(held.live_key, held.live_ts), pristine])


def skips_base_read(manager, node_id: int, views: List[ViewDefinition],
                    key: Hashable, turns: List[int]) -> bool:
    """True if no record of a Put on ``key`` made now would read
    Algorithm 1's guesses, by the ``turns`` peeked for ``views``: each
    chain is pristine (turn 0: the record takes the first turn) or
    ``node_id`` holds its live row at that turn (the record skips its
    walk).  A prediction: a record that loses the chain walks from
    :func:`_sure_guesses`."""
    held = [manager.maintainer.held_row(node_id, view, key)
            for view in views]
    if any(turn and (row is None or row.turn != turn)
           for row, turn in zip(held, turns)):
        return False
    manager.maintainer.metrics.reads_skipped += 1
    if manager.tracer.enabled:
        for view, row in zip(views, held):
            manager.tracer.emit("chain", "base read skipped", view=view.name,
                                base_key=key, live=row and row.live_key)
    return True


def _maybe_crash(manager, coordinator, view: ViewDefinition, key: Hashable,
                 base_ts: int) -> None:
    """Consult the armed crash hooks (``ViewManager.add_crash_hook``)."""
    for hook in list(manager._crash_hooks):
        if hook(coordinator, view, key, base_ts):
            raise CoordinatorCrashError(
                f"coordinator {coordinator.node.node_id} crashed before "
                f"propagating base key {key!r} (ts {base_ts}) to view "
                f"{view.name!r}")


def _merge_guesses(guesses: Iterable[ViewKeyGuess]) -> List[ViewKeyGuess]:
    """Distinct view-key guesses, most recent timestamp first.

    Deduplicates by key, keeping the max timestamp and preserving the
    pristine-NULL property: if ANY replica reported the view key as
    never-written, the NULL guess keeps its virtual-anchor fallback even
    when another replica already shows this update's own tombstone."""
    seen: Dict[Any, ViewKeyGuess] = {}
    for guess in guesses:
        existing = seen.get(guess.key)
        if existing is None:
            seen[guess.key] = guess
        else:
            seen[guess.key] = ViewKeyGuess(
                guess.key,
                max(existing.timestamp, guess.timestamp),
                existing.allow_virtual or guess.allow_virtual)
    return sorted(seen.values(), key=lambda g: g.timestamp, reverse=True)


def propagate_with_retries(manager, coordinator, view: ViewDefinition,
                           table: str, key: Hashable,
                           guesses: List[ViewKeyGuess],
                           update_values: Dict[ColumnName, Any],
                           base_ts: int,
                           outbox: Optional[NodeOutbox] = None,
                           whole_row: bool = False):
    """Algorithm 1 lines 5-7: retry guesses until one propagates, or
    raise :class:`PropagationError` after :data:`MAX_ROUNDS` rounds.

    A ``whole_row`` job also writes the materialized columns its update
    does not carry (``views.maintenance``, *Whole rows*): a re-drive's,
    and on a backfilled view every round from the one that held turn 1
    on, for a first turn that failed leaves its retry to enter the row.

    Locks (or the propagator's turn) are released between rounds —
    holding them across a failed round would block the very propagation
    that must run before the retry can succeed.  The same goes for the
    worker slot a record's process holds on ``outbox``
    (:func:`_back_off`); scrub repair, a new view's load included,
    holds no worker and passes no outbox.
    """
    def job(executor, turn):
        nonlocal whole_row
        whole_row = whole_row or (
            turn == 1 and view.name in manager.maintainer.backfilled)
        return (yield from _attempt_round(manager, executor, view, key,
                                          guesses, update_values, base_ts,
                                          turn, whole_row))

    rounds = 0
    while True:
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise PropagationError(
                f"update for base key {key!r} could not be propagated "
                f"to view {view.name!r} after {rounds - 1} rounds")
        if (yield from manager.serialized(coordinator, view, key, job)):
            return
        manager.maintainer.metrics.retry_rounds += 1
        manager.tracer.emit("propagation", "round failed; backing off",
                            view=view.name, key=key, round=rounds)
        yield from _back_off(manager, view, key, outbox, rounds)
        if rounds % 4 == 0:
            # Refresh guesses from the base replicas: slow peers may
            # have propagated by now, giving us a valid entry point.
            # With every replica down the read is unavailable: one more
            # transient shortfall, so keep the guesses in hand.
            try:
                collector = coordinator.scatter_read(
                    table, key, (view.view_key_column,), 1,
                    every_replica=True)
            except QuorumError:
                continue
            responses = yield collector.settled
            fresh = (ViewKeyGuess.from_cell(
                         view, response.cells.get(view.view_key_column))
                     for response in responses)
            guesses[:] = _merge_guesses((*guesses, *fresh))


def _back_off(manager, view: ViewDefinition, key: Hashable,
              outbox: Optional[NodeOutbox], rounds: int):
    """Sleep before retry round ``rounds + 1``.  A record's process
    gives its worker slot on ``outbox`` back for the length of the
    sleep and re-takes it after, and for that long its chain is in
    ``outbox.sleeping`` — it has failed a full round and may be waiting
    for a row only the scrubber can write, so the scrubber must not
    count it as work in flight (``ViewManager.chain_epoch``)."""
    chain = (view.name, key)
    if outbox is not None:
        outbox.workers.release()
        outbox.sleeping.add(chain)
    yield manager.env.timeout(_retry_delay(manager, rounds))
    if outbox is not None:
        outbox.sleeping.discard(chain)
        yield outbox.workers.acquire()


def _retry_delay(manager, rounds: int) -> float:
    """Backoff before retry round ``rounds + 1``: exponential from
    :data:`RETRY_BACKOFF`, capped at :data:`RETRY_BACKOFF_CAP`, jittered
    into ``[d/2, d)`` by the deterministic sim RNG.  A fixed interval
    would retry every contending propagation in lockstep, re-colliding
    on the same lock/chain state each round; the jitter spreads the
    wakeups."""
    delay = min(RETRY_BACKOFF * (2.0 ** (rounds - 1)), RETRY_BACKOFF_CAP)
    return delay * (0.5 + 0.5 * manager._rng.random())


def _attempt_round(manager, coordinator, view: ViewDefinition,
                   key: Hashable, guesses: List[ViewKeyGuess],
                   update_values: Dict[ColumnName, Any], base_ts: int,
                   turn: int, whole_row: bool = False):
    """Try each guess once, all under the chain turn ``turn``; True on
    success.

    ``PropagationError`` means the guess is not (yet) a valid chain
    entry point; ``QuorumError`` means a transient replica shortfall
    (loss, timeout) during an internal view Get/Put.  Both fall through
    to the next guess and are retried on a later round — Algorithm 2's
    writes are idempotent, and a move cut between its two Puts is
    finished by whichever move walks into it next, from any entry point
    (``ViewMaintainer.get_live_key``).
    """
    for guess in guesses:
        try:
            yield from manager.maintainer.propagate_update(
                coordinator, view, key, guess, update_values, base_ts,
                turn, whole_row)
            return True
        except (PropagationError, QuorumError):
            continue
    return False


def repropagate_row(manager, coordinator, view: ViewDefinition,
                    base_key: Hashable, strays: Tuple[Any, ...] = (),
                    outbox: Optional[NodeOutbox] = None):
    """Propagate one base row's current state into ``view``; a process.

    Repair is deliberately *not* a special write path.  A diverged row
    is healed by replaying what Algorithm 1 would have done for the
    row's current base state, as one serialized job: quorum-read the
    view-key cell, then propagate it at its own timestamp as a
    ``whole_row`` job, which under its turn reads the materialized base
    columns at majority and writes them with its own cells (line 4, the
    self-pointer's Put, or line 12 when the key is not newer than the
    live row), at their own timestamps.  The job starts from the
    never-written-NULL guess, whose virtual anchor makes it a universal
    chain entry point (``GetLiveKey`` walks from the NULL anchor to
    whatever row is currently live); the walk takes one hop per move
    since the last one, which repointed the anchor at the live row
    (``ViewMaintainer.compact_anchor``).  Because every view write
    carries scaled base timestamps, replaying already-propagated state
    is an LWW no-op, and replaying lost state lands exactly where the
    original propagation would have put it — repaired views are
    indistinguishable from never-diverged ones.  Folded outbox records
    (which pass the ``outbox`` whose worker slot they hold, and try the
    row their node holds before the NULL anchor) share the routine with
    scrub repair, which also loads a view created over a populated
    table.

    Both base reads are at the majority quorum, so repair keeps working
    while a minority of replicas is down.  ``strays`` names view keys
    the detector found holding
    unexpected live rows for ``base_key``: replaying the winning state
    alone never touches them (the chain walk stops at the winner, so
    the replay is an LWW no-op), leaving an absorbing two-live-rows
    state that scrub would re-confirm forever.  Each stray is demoted
    with the exact stale-pointer write a successful propagation move
    would have issued (Algorithm 2 line 8); under LWW the demotion only
    takes effect when the quorum-read base winner really is newer than
    the stray's live self-pointer, so a stray that is actually the
    freshest state (base read lagging the view) is left untouched.  A
    row whose view key was never written needs no view row (its parked
    materialized state waits on the anchor).  Raises
    :class:`~repro.errors.QuorumError` if the view-key read cannot
    reach a quorum, and :class:`~repro.errors.PropagationError` if
    every retry round is exhausted.
    """
    merged = yield from coordinator.get(
        view.base_table, base_key, (view.view_key_column,),
        manager.maintainer.quorum)
    key_cell = merged[view.view_key_column]
    if key_cell.timestamp < 0:
        return
    pristine = ([ViewKeyGuess.from_cell(view, None)] if outbox is None
                else _sure_guesses(manager, outbox, view, base_key))
    yield from propagate_with_retries(
        manager, coordinator, view, view.base_table, base_key, pristine,
        {view.view_key_column: (None if key_cell.tombstone
                                else key_cell.value)},
        key_cell.timestamp, outbox=outbox, whole_row=True)
    # Where the row now lives: its current view key, or the NULL anchor
    # for a deleted / predicate-rejected one.
    live = ViewKeyGuess.from_cell(view, key_cell)
    if strays:
        next_col = view_column(base_key, NEXT_COLUMN)
        stale_ts = view_timestamp(key_cell.timestamp, PHASE_STALE)
        for stray in strays:
            if stray == live.key:
                continue
            yield from manager.maintainer._view_put(
                coordinator, view.name, stray,
                {next_col: Cell(live.key, stale_ts)})
    # A committed repair re-drove the row's *current* majority-visible
    # base state through the full chain walk: any wound on the chain is
    # covered (quorum-level evidence, unlike a digest-clean round).
    manager.freshness.note_repaired(view.name, base_key)
