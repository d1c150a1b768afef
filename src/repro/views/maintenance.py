"""Incremental view maintenance: Algorithms 2 and 3 of the paper.

:class:`ViewMaintainer` performs one update propagation against the
distributed view table:

- :meth:`get_live_key` is Algorithm 3 (``GetLiveKey``): walk the stale-row
  pointer chain from a view-key guess to the live row, with majority
  quorums, failing if the guess's row does not exist yet (its writing
  update has not propagated).  On request every hop also reads the
  row's materialized cells, so the walk's last Get hands the live row's
  data back with its key.
- :meth:`propagate_update` is Algorithm 2 (``PropagateUpdate``), extended
  per the paper's remarks to handle multi-column Puts (view key plus
  materialized columns propagated together) and view-key deletions
  (handled through the NULL anchor, see :mod:`repro.views.versioned`).

Every Get/Put inside propagation uses a majority quorum of the view's
replicas, as Algorithm 2 prescribes.  A view-key move is three
view-table quorum rounds, not the paper's six: the chain walk (one Get
when the guess is the live row), the stale pointer (line 8) and the new
live row (line 4) — two when the executor made the row live itself and
nobody has held the chain since, or when the job is the chain's first
(both below).  ``CopyData`` (line 7: a Get of the old live row, then a
Put of what it returned) has no rounds of its own — its Get is the
walk's last hop, which reads that very row, and its Put is line 4,
which writes that very row.  Nor does line 12 when the update also
moves the key: its materialized cells ride the line-4 Put, merged over
the copied cells by LWW (or the self-pointer's Put, on a same-key
refresh).  Only an update that is not newer than the live row, whose
row enters the view stale, still writes them to the live row in a
round of its own.  The paper's unmark has no round either: there is no
Init mark.  Four things make that safe:

1. Every propagation owns its chain exclusively
   (``ViewManager.serialized``: the row's lock, or its propagator), so
   no materialized-column propagation for the same base key runs
   between the last hop's Get and the line-4 Put — the cells a
   separate Get would have returned are the cells the last hop returned.
2. Copied cells keep their own values *and* scaled timestamps, so even
   an interleaving that (1) forbids would merge by ordinary LWW.
3. Line 8 comes first, and line 4 writes the new row already live with
   the copied cells in the same per-replica atomic apply.  The mark
   existed so a reader never sees two live rows for one base row
   (Section IV-F); with the old row stale before the new one appears
   there is at most one, and none in between — ordinary staleness,
   which a view read may show anyway.  Nor can a reader see the new
   row without its data, or with an old value of a column the same Put
   rewrote.  This is cheaper than the paper's algorithm: an extension
   beyond it, not a reading of it.
4. Every write is idempotent, and every entry point is safe.  A move
   cut between its two Puts leaves the old row J pointing at a key K
   whose entry is missing, or older on a reused key.  The walk refuses
   that hop (``versioned.hop_lands``): the next view-key move's walk
   finishes the move (K live at the cut's timestamp with J's cells),
   and any other walk writes J, whose cells that finish copies.

Two rounds when the executor holds the row.  A move that ran to its
end leaves, in the executor node's volatile memory, what it made live:
a :class:`HeldRow` ``(live key, live base timestamp, non-null
materialized cells, turn)``.
``turn`` is the chain's fencing token: ``ViewManager.serialized`` numbers
the jobs of a ``(view, base key)`` chain in the order they start, and
every chain writer — outbox records (folded ones too), scrub repair
(which also loads a new view), GC — passes through it.  The next
view-key propagation on that node for that chain skips line 1's Get iff
``entry.turn + 1 == turn``:

- *Nobody has held the chain since*, so nothing has written the row: it
  is what this node's own acknowledged rounds left.
- *That is what a majority Get would merge to.*  The move ran because
  the update was newer than the old live row, so its self-pointer beats
  every pointer the reused key may carry, and its line-4 Put wrote the
  old row's cells verbatim with the update's own merged over them by
  LWW — which is what the entry holds.
- *Popped before use, stored only on success.*  A ``QuorumError`` or
  ``PropagationError`` mid-round, a crash (``forget_node``), a
  materialized-only job, a GC sweep and any other coordinator's turn
  all leave the next propagation to walk.  Only moves store: a same-key refresh or a
  not-newer insert leaves the live row as some earlier writer made it.

The walk is the only reader of Algorithm 1's guesses, so a base Put
whose coordinator holds each affected chain's row at the chain's
current turn skips that every-replica Get too
(``views.drive.skips_base_read``): a repeat move is three quorum
rounds in all, base Put, line 8 and line 4.  The turn is a peek
(``ViewManager.peek_sequencer``), a prediction and not a fence: the
check above still decides, and a record that lost the chain walks
from the held row, then from the NULL anchor.

First turn.  ``turn`` 1 is the chain's first job ever, and every chain
writer passes through ``ViewManager.serialized``, the one place turns
are minted (``tests/test_layout.py`` pins it), so no cell of the chain
exists yet and a walk could only end at the virtual NULL anchor, with
no cells.  That job takes the anchor as line 1's live row with no Get,
whatever its guess: even one naming a row whose writer has not
propagated, which a walk would fail.  So a Put whose peek finds the
chain pristine (turn 0) skips Algorithm 1's Get as a holder's does (if
another job takes turn 1 first, its record walks from the NULL anchor
that turn's line 8 wrote), and a row's first multi-column Put — every
bulk load's — is three quorum rounds, base Put, line 8 (which creates
the anchor row) and line 4: 9 RPCs at N = 3.

Whole rows.  A ``whole_row`` job makes one majority Get, under its
turn, of the materialized base columns its update does not carry, and
writes them at their own scaled ``PHASE_ROW`` timestamps with its own
cells: with line 4, the self-pointer's Put, or line 12 (on the NULL
anchor for a materialized-only job; the move that later enters the row
copies them).  One predicate marks a job, in
``views.drive.propagate_with_retries``: ``whole_row or (turn == 1 and
view.name in backfilled)``.  Every re-drive is one such job, whatever
the number of materialized columns.  So is a first turn on a view
created over a populated table (``backfilled``, by
``Cluster.backfill``), whose rows hold cells no record carries, and
every later round of its record: a first turn cut by a ``QuorumError``
is retried at turn 2, whose walk finds no cell to copy.

Path compression: a serialized walk from the NULL anchor (every
re-drive's entry point) of more than two hops ends by repointing the
anchor at the live row, :meth:`ViewMaintainer.compact_anchor`, which GC
calls too.  Walks from other guesses, and unserialized ones, write
nothing but the finish of a cut move.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, NamedTuple, Optional, Set, Tuple

from repro.common.quorum import majority
from repro.common.records import NULL_TIMESTAMP, Cell, ColumnName, cell_wins
from repro.errors import PropagationError, ViewError
from repro.views.definition import NEXT_COLUMN, ViewDefinition
from repro.views.versioned import (
    NULL_VIEW_KEY,
    PHASE_COMPACT,
    PHASE_LIVE,
    PHASE_ROW,
    PHASE_STALE,
    base_timestamp_of,
    hop_lands,
    view_column,
    view_timestamp,
)

__all__ = ["ViewKeyGuess", "HeldRow", "PropagationMetrics", "ViewMaintainer"]

# Safety bound on chain walks: a cycle would indicate a maintenance bug,
# so fail loudly rather than spin forever.
_MAX_CHAIN_HOPS = 10_000


@dataclass(frozen=True)
class ViewKeyGuess:
    """One view-key version collected from a base-row replica.

    ``key`` is the *effective* chain anchor: real view keys map to
    themselves, NULLs / tombstones / predicate-rejected values map to the
    NULL anchor.  ``allow_virtual`` is True only for the never-written
    NULL (the initial base state), whose chain may legitimately not exist
    yet; a tombstone NULL was written by a deletion update, so its anchor
    row must exist before propagation can proceed (same rule as any other
    guess).
    """

    key: Any
    timestamp: int
    allow_virtual: bool = False

    @staticmethod
    def from_cell(definition: ViewDefinition,
                  cell: Optional[Cell]) -> "ViewKeyGuess":
        """Classify one replica's view-key cell into a guess."""
        if cell is None or cell.timestamp == NULL_TIMESTAMP:
            return ViewKeyGuess(NULL_VIEW_KEY, NULL_TIMESTAMP,
                                allow_virtual=True)
        if cell.is_null or not definition.accepts_key(cell.value):
            return ViewKeyGuess(NULL_VIEW_KEY, cell.timestamp)
        return ViewKeyGuess(cell.value, cell.timestamp)


class HeldRow(NamedTuple):
    """What a node's last move of a chain made live (module docstring,
    *Two rounds when the executor holds the row*)."""

    live_key: Any
    live_ts: int
    cells: Tuple[Tuple[ColumnName, Cell], ...]  # non-null, materialized
    turn: int  # the move's fencing token (ViewManager.serialized)


@dataclass
class PropagationMetrics:
    """Counters describing maintenance work (used by the skew analysis)."""

    propagations_started: int = 0
    propagations_succeeded: int = 0
    guess_failures: int = 0
    retry_rounds: int = 0
    chain_hops: int = 0  # Gets the chain walks made
    walks_skipped: int = 0  # no walk: a held live row, or the first turn
    reads_skipped: int = 0  # base Puts whose coordinator held every live row
    rows_copied: int = 0  # view-key moves that carried materialized cells

    def hops_per_propagation(self) -> float:
        """Average GetLiveKey hops (Gets made) per successful
        propagation; one that skipped its walk adds none."""
        if self.propagations_succeeded == 0:
            return 0.0
        return self.chain_hops / self.propagations_succeeded


class ViewMaintainer:
    """Executes update propagations against a cluster's view tables,
    at the majority of ``replication_factor``, emitting on ``tracer``."""

    def __init__(self, env, replication_factor: int, tracer):
        self.env = env
        self.tracer = tracer
        self.quorum = majority(replication_factor)
        self.metrics = PropagationMetrics()
        # Views created over a populated table (``Cluster.backfill``):
        # a row may hold cells no record of the view carries.
        self.backfilled: Set[str] = set()
        # What each node's last view-key move left live, per view:
        # ``node id -> view name -> {base key: HeldRow}``.  Volatile
        # coordinator memory (see :meth:`forget_node`), consumed by
        # :meth:`propagate_update`.
        self._held: Dict[int, Dict[str, Dict[Hashable, HeldRow]]] = (
            defaultdict(lambda: defaultdict(dict)))

    def held_row(self, node_id: int, view: ViewDefinition,
                 base_key: Hashable) -> Optional[HeldRow]:
        """The row ``node_id``'s last move of the chain made live.  It
        exists, and the live row is as many hops on as others have
        moved it since; whether that is none is what ``turn`` tells."""
        return self._held[node_id][view.name].get(base_key)

    def forget_node(self, node_id: int) -> None:
        """Drop every live row ``node_id`` holds: a crashed coordinator
        does not come back remembering what it wrote."""
        self._held.pop(node_id, None)

    # -- low-level view I/O (majority quorums) ---------------------------------

    # Each returns the quorum op's own generator, to ``yield from``:
    # no frame of its own to resume on every step below it.

    def _view_get(self, coordinator, view_name: str, view_key: Any,
                  columns: Tuple[ColumnName, ...]):
        return coordinator.get(view_name, view_key, columns, self.quorum)

    def _view_put(self, coordinator, view_name: str, view_key: Any,
                  cells: Dict[ColumnName, Cell]):
        return coordinator.put(view_name, view_key, cells, self.quorum)

    def _base_cells(self, coordinator, view: ViewDefinition,
                    base_key: Hashable, update_values: Dict[ColumnName, Any]):
        """The base row's materialized cells the update does not carry,
        one majority Get, as view cells at their own scaled timestamps."""
        missing = tuple(column for column in view.materialized_columns
                        if column not in update_values)
        if not missing:
            return {}
        merged = yield from coordinator.get(view.base_table, base_key,
                                            missing, self.quorum)
        return {view_column(base_key, column): Cell.make(
                    cell.value, view_timestamp(cell.timestamp, PHASE_ROW))
                for column, cell in merged.items()
                if cell.timestamp != NULL_TIMESTAMP}

    # -- Algorithm 3: GetLiveKey -------------------------------------------------

    def get_live_key(self, coordinator, view: ViewDefinition,
                     base_key: Hashable, guess: ViewKeyGuess,
                     columns: Tuple[ColumnName, ...] = (),
                     compact: bool = False, moving: bool = False):
        """Walk Next pointers from ``guess`` to the live row.

        Returns ``(live_key, live_base_ts, cells)``.  Every hop reads
        ``(Next, *columns)`` — a hop is not known to be the last before
        it is read — and ``cells`` is the live row's merged cell per
        view column of ``columns`` (CopyData's read, riding the walk's
        last Get; empty when no columns were asked for).  Raises
        :class:`PropagationError` when the guess's row does not exist
        (the update that wrote that view key has not yet propagated).
        The never-written NULL guess is allowed to find no anchor row: it
        returns the virtual pristine anchor ``(NULL_VIEW_KEY, -1)``,
        which is correct because the initial base state is propagated by
        definition and first propagation is serialized per base row.
        Cells parked on that anchor by earlier materialized-column
        updates come back in ``cells`` like any live row's.
        ``compact`` (the guess is the NULL anchor, the caller holds the
        chain's turn) ends a walk of over two hops with :meth:`compact_anchor`.

        A hop from row J to the key K its pointer names at base
        timestamp t is taken only if it lands (``versioned.hop_lands``).
        Otherwise the move to K was cut after its line 8, and
        ``moving`` says who finishes it.  A view-key move (``moving``,
        which read J's ``columns``) writes K live at t with J's cells in
        one Put and returns K.  Any other walk returns J: it did not
        read J's cells, so it has none to write to K, and J still holds
        them, so a materialized-only update lands there and the
        finishing move copies it on.
        """
        current = guess.key
        next_column = view_column(base_key, NEXT_COLUMN)
        read_columns = (next_column, *columns)
        hops = 0
        left = None  # (key, Next cell, cells) of the row the walk left
        while True:
            hops += 1
            if hops > _MAX_CHAIN_HOPS:
                raise ViewError(
                    f"view {view.name!r}: pointer chain for base key "
                    f"{base_key!r} exceeded {_MAX_CHAIN_HOPS} hops "
                    "(cycle suspected)")
            merged = yield from self._view_get(
                coordinator, view.name, current, read_columns)
            next_cell = merged.pop(next_column)
            if left is not None and not hop_lands(left[1], next_cell):
                left_key, pointer, left_cells = left
                cut_ts = base_timestamp_of(pointer.timestamp)
                self.tracer.emit(
                    "chain", "cut move", view=view.name, base_key=base_key,
                    left=left_key, target=current, finished=moving)
                if not moving:
                    return left_key, cut_ts, left_cells
                cells = {column: cell for column, cell in left_cells.items()
                         if cell.timestamp != NULL_TIMESTAMP}
                yield from self._view_put(coordinator, view.name, current, {
                    next_column: Cell(current,
                                      view_timestamp(cut_ts, PHASE_LIVE)),
                    **cells,
                })
                return current, cut_ts, cells
            if next_cell.is_null:
                if guess.allow_virtual:
                    # Pristine chain: nothing has propagated for this
                    # base row.  Anchor at the virtual NULL row.
                    return NULL_VIEW_KEY, NULL_TIMESTAMP, merged
                self.metrics.guess_failures += 1
                raise PropagationError(
                    f"view key {current!r} not found in view {view.name!r} "
                    f"for base key {base_key!r} (writing update not yet "
                    "propagated)")
            self.metrics.chain_hops += 1
            pointer_ts = base_timestamp_of(next_cell.timestamp)
            if next_cell.value == current:
                if self.tracer.enabled:
                    self.tracer.emit(
                        "chain", "live row resolved", view=view.name,
                        base_key=base_key, live=current, hops=hops)
                if compact and hops > 2:
                    yield from self.compact_anchor(
                        coordinator, view, base_key, entry_ts, current,
                        pointer_ts)
                return current, pointer_ts, merged
            if hops == 1:
                entry_ts = pointer_ts
            left = (current, next_cell, merged)
            current = next_cell.value

    def compact_anchor(self, coordinator, view: ViewDefinition,
                       base_key: Hashable, anchor_ts: int, live_key: Any,
                       live_ts: int):
        """Repoint the NULL anchor's ``Next`` (base timestamp
        ``anchor_ts``) straight at the live row: union-find path
        compression on the one entry point every chain has.  The stamp
        derives from the live row's base timestamp, which grows with
        every move; one derived from the anchor's own alone would repeat
        once the live key moved on and lose under LWW forever."""
        yield from self._view_put(coordinator, view.name, NULL_VIEW_KEY, {
            view_column(base_key, NEXT_COLUMN): Cell(
                live_key, view_timestamp(max(anchor_ts, live_ts),
                                         PHASE_COMPACT)),
        })

    # -- Algorithm 2: PropagateUpdate ---------------------------------------------------

    def propagate_update(self, coordinator, view: ViewDefinition,
                         base_key: Hashable, guess: ViewKeyGuess,
                         update_values: Dict[ColumnName, Any],
                         base_ts: int, turn: Optional[int] = None,
                         whole_row: bool = False):
        """Propagate one base update to the view (may raise
        :class:`PropagationError` if the guess fails; the caller retries
        with a different guess, per Algorithm 1).

        ``update_values`` holds the Put's watched columns (view key
        and/or materialized), with raw application values.  ``turn`` is
        the chain's fencing token from ``ViewManager.serialized``; a
        caller outside serialization has none, so it always walks and
        leaves nothing held.  A ``whole_row`` job also writes the
        materialized columns the update does not carry, read from the
        base row (module docstring, *Whole rows*).
        """
        self.metrics.propagations_started += 1
        moves_key = view.view_key_column in update_values
        # Popped before use, whoever propagates: an entry outlives only
        # the turn that stored it, and only if this one succeeds.
        held = self._held[coordinator.node.node_id][view.name]
        entry = held.pop(base_key, None)
        if turn == 1:
            # Line 1 without the Get, whatever the guess: the chain's
            # first job ever, so no cell of it exists and the walk could
            # only end at the virtual NULL anchor (module docstring,
            # *First turn*).
            live_key, live_ts, live_cells = NULL_VIEW_KEY, NULL_TIMESTAMP, {}
            self.metrics.walks_skipped += 1
        elif moves_key and entry is not None and entry.turn + 1 == turn:
            # Line 1 without the Get: nobody has held the chain since
            # this node made ``live_key`` live, so the row is what it
            # wrote.
            live_key, live_ts = entry.live_key, entry.live_ts
            live_cells = dict(entry.cells)
            self.metrics.walks_skipped += 1
            if self.tracer.enabled:
                self.tracer.emit("chain", "live row held", view=view.name,
                                 base_key=base_key, live=live_key)
        else:
            # Line 1: find the live row from the guess.  A view-key
            # update may move the row, so its walk also reads what
            # CopyData would.
            copy_columns = tuple(view_column(base_key, column)
                                 for column in view.materialized_columns
                                 ) if moves_key else ()
            live_key, live_ts, merged = yield from self.get_live_key(
                coordinator, view, base_key, guess, copy_columns,
                compact=turn is not None and guess.key == NULL_VIEW_KEY,
                moving=moves_key)
            live_cells = {column: cell for column, cell in merged.items()
                          if cell.timestamp != NULL_TIMESTAMP}

        materialized = {
            view_column(base_key, column):
                Cell.make(value, view_timestamp(base_ts, PHASE_ROW))
            for column, value in update_values.items()
            if view.is_materialized(column)
        }
        if whole_row:
            # The row may hold cells this update does not carry: line 4
            # (or 12) writes them too (module docstring, *Whole rows*).
            materialized.update((yield from self._base_cells(
                coordinator, view, base_key, update_values)))
        if moves_key:
            target_key = yield from self._propagate_view_key(
                coordinator, view, base_key,
                update_values[view.view_key_column], base_ts,
                live_key, live_ts, live_cells, materialized)
        else:
            # Line 12 alone: the materialized cells, to the live row.
            # Writing to the NULL anchor is deliberate: the walk of the
            # view-key update that re-enters the row into the view reads
            # them there and copies them to the new row.
            yield from self._view_put(coordinator, view.name, live_key,
                                      materialized)
            target_key = live_key
        self.metrics.propagations_succeeded += 1
        if turn is not None and target_key != live_key:
            # A move: every round was acknowledged by a majority and
            # every cell written beats what the row held (the update is
            # newer than the old live row), so a majority Get of
            # ``target_key`` now merges to ``live_cells``, the line-4
            # Put's cells.  (``held`` was fetched before the rounds: if
            # the node failed meanwhile, ``forget_node`` has dropped
            # that dict and this entry goes with it.)
            held[base_key] = HeldRow(target_key, base_ts,
                                     tuple(live_cells.items()), turn)
        return target_key

    def _propagate_view_key(self, coordinator, view: ViewDefinition,
                            base_key: Hashable, raw_value: Any, base_ts: int,
                            live_key: Any, live_ts: int,
                            live_cells: Dict[ColumnName, Cell],
                            materialized: Dict[ColumnName, Cell]):
        """The view-key-update branch of Algorithm 2 (lines 3-12).

        ``live_cells`` are the live row's non-null materialized cells,
        as the chain walk's last Get returned them or as this node left
        them; a move writes them into the new row verbatim (CopyData,
        line 7) inside the line-4 Put, with ``materialized`` — the
        update's own cells, line 12 — merged over them by LWW, and
        leaves ``live_cells`` holding that merge.  Returns the view key
        that is live after this propagation: other than ``live_key``
        exactly when the row moved.
        """
        new_key = raw_value if view.accepts_key(raw_value) else NULL_VIEW_KEY
        next_col = view_column(base_key, NEXT_COLUMN)
        live_stamp = view_timestamp(base_ts, PHASE_LIVE)
        stale_ts = view_timestamp(base_ts, PHASE_STALE)

        if self.tracer.enabled:
            self.tracer.emit(
                "propagate", "view-key update", view=view.name,
                base_key=base_key, new_key=new_key, live_key=live_key,
                ts=base_ts)

        if new_key == live_key:
            # Same-key refresh: line 4 alone, the self-pointer at this
            # update's stamp, with line 12's cells.
            yield from self._view_put(coordinator, view.name, new_key, {
                next_col: Cell(new_key, live_stamp),
                **materialized,
            })
            return new_key

        update_is_newer = cell_wins(
            Cell.make(new_key, base_ts),
            Cell.make(live_key, live_ts) if live_ts != NULL_TIMESTAMP
            else None)
        if not update_is_newer:
            # Line 10 coalesced: the new row enters the view already
            # stale, pointing at the live row.  Writing the final
            # pointer in one Put exposes no intermediate state.  On a
            # reused key it also retires the old self-pointer.
            yield from self._view_put(coordinator, view.name, new_key, {
                next_col: Cell(live_key, stale_ts),
            })
            if materialized:
                # Line 12, in a round of its own: its target is the live
                # row, not the one this branch wrote.
                yield from self._view_put(coordinator, view.name, live_key,
                                          materialized)
            return live_key

        # Line 8 first, so no Init mark is needed (module docstring,
        # point 3): make the old live row stale.  For a pristine chain
        # this creates the NULL anchor row, giving later NULL guesses a
        # path to the live row.
        if live_cells:
            self.metrics.rows_copied += 1
        yield from self._view_put(coordinator, view.name, live_key, {
            next_col: Cell(new_key, stale_ts),
        })
        # Lines 4, 7 and 12 in one Put: the new row, already live, the
        # old live row's materialized cells, verbatim, and this update's
        # merged over them as a replica's LWW would merge two Puts (why
        # that is safe: the module docstring).  The copy runs even when
        # the old live row is the (possibly virtual) NULL anchor:
        # materialized updates that propagated before any view-key
        # update park their cells there.
        for column, cell in materialized.items():
            if cell_wins(cell, live_cells.get(column)):
                live_cells[column] = cell
        yield from self._view_put(coordinator, view.name, new_key, {
            next_col: Cell(new_key, live_stamp),
            **live_cells,
        })
        return new_key
