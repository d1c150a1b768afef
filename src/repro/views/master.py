"""Master-based view maintenance: the PNUTS-style baseline (paper §IV-A).

The paper considers — and rejects — the alternative where each base row
has a designated *master* that serializes its updates and propagates
them to views "sequentially and in the order in which they are applied
at that master copy".  This module implements that alternative so the
two designs can be compared:

- The master of a base row is chosen by consistent hashing over the
  nodes.  All updates to the row are routed through it.
- The master assigns the update's timestamp from its own monotonic
  oracle (PNUTS timeline consistency: master arrival order *is* the
  order), applies the base Put at the requested quorum, and then
  propagates to each view asynchronously **but in order** (a per-row
  chain).
- Because propagation is ordered, the master always knows the row's
  current view key; the view needs **no versioned rows**: a key change
  writes the new live row and tombstones the old one.  The stored
  layout is the same wide-row/self-pointer format, so Algorithm 4 view
  reads work unchanged.

What the simplification costs — and why the paper rejected it — is
availability: if a row's master is down, updates to that row fail until
some failover mechanism appoints a new master (not implemented here,
exactly the machinery the paper did not want to add to a multi-master
system).  ``tests/views/test_master.py`` demonstrates both halves:
cheaper maintenance, and write unavailability under a single node
failure while the decentralized design keeps going.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Tuple

from repro.common.hashing import TokenRing
from repro.common.records import Cell, ColumnName
from repro.common.timestamps import TimestampOracle
from repro.errors import (
    NoSuchViewError,
    NodeDownError,
    ViewDefinitionError,
    ViewExistsError,
)
from repro.views.definition import NEXT_COLUMN, ViewDefinition
from repro.views.locks import LockService
from repro.views.versioned import (
    PHASE_LIVE,
    PHASE_ROW,
    PHASE_STALE,
    view_column,
    view_timestamp,
)

__all__ = ["MasterBasedViews"]


class MasterBasedViews:
    """A self-contained master-based maintenance engine.

    Intentionally NOT wired into :class:`ClientHandle` — it is the
    comparison baseline, driven explicitly::

        masters = MasterBasedViews(cluster)
        masters.register(ViewDefinition("V", "T", "vk", ("m",)))
        yield from masters.put("T", key, {"vk": "a"}, w=1)
        rows = yield from masters.view_get(coordinator, "V", "a", ("m",), 1)
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self.env = cluster.env
        self.ring = TokenRing([node.node_id for node in cluster.nodes],
                              salt="row-masters")
        self._views: Dict[str, ViewDefinition] = {}
        self._by_table: Dict[str, List[ViewDefinition]] = {}
        # Per-master timestamp oracles (timeline consistency).
        self._oracles: Dict[int, TimestampOracle] = {}
        # Per-row serialization: each row's FIFO queue at its master.
        self._rows = LockService(self.env)
        # The master's authoritative record of each row's current view
        # key per view (this is what ordered propagation buys: no
        # guessing, no stale rows).
        self._current: Dict[Tuple[str, Hashable], Any] = {}
        self.propagations = 0

    # -- registry -----------------------------------------------------------

    def register(self, definition: ViewDefinition) -> None:
        """Register a view and create its backing table."""
        if definition.name in self._views:
            raise ViewExistsError(definition.name)
        if not self.cluster.has_table(definition.base_table):
            raise ViewDefinitionError(
                f"base table {definition.base_table!r} does not exist")
        if not self.cluster.has_table(definition.name):
            self.cluster.create_table(definition.name)
        self._views[definition.name] = definition
        self._by_table.setdefault(definition.base_table, []).append(definition)

    def view(self, name: str) -> ViewDefinition:
        """Look up a registered view."""
        try:
            return self._views[name]
        except KeyError:
            raise NoSuchViewError(name) from None

    # -- mastering -------------------------------------------------------------

    def master_of(self, table: str, key: Hashable) -> int:
        """The node id mastering this base row."""
        return self.ring.primary((table, key))

    def _oracle_for(self, node_id: int) -> TimestampOracle:
        oracle = self._oracles.get(node_id)
        if oracle is None:
            # High client-id space so master timestamps never collide
            # with ordinary client oracles.
            oracle = TimestampOracle(client_id=60_000 + node_id,
                                     now_fn=lambda: self.env.now)
            self._oracles[node_id] = oracle
        return oracle

    # -- writes ---------------------------------------------------------------

    def put(self, table: str, key: Hashable, values: Dict[ColumnName, Any],
            w: int = 1):
        """Route an update through the row's master; a process.

        Raises :class:`NodeDownError` if the master is down — the
        availability cost of the design (paper §IV-A).  Returns the
        master-assigned timestamp.
        """
        master_id = self.master_of(table, key)
        master = self.cluster.node(master_id)
        if master.is_down:
            raise NodeDownError(
                f"master node {master_id} for {table!r}[{key!r}] is down "
                "(master-based maintenance has no failover)")
        # Client -> master hop.
        from repro.cluster.network import CLIENT

        yield self.env.timeout(
            self.cluster.network.one_way_delay(CLIENT, master_id))
        # Serialize behind earlier updates to this row.
        yield self._rows.request(table, key)
        try:
            ts = yield from self._apply_at_master(master_id, table, key,
                                                  values, w)
        finally:
            self._rows.release(table, key)
        # Reply hop back to the client.
        yield self.env.timeout(
            self.cluster.network.one_way_delay(master_id, CLIENT))
        return ts

    def _apply_at_master(self, master_id: int, table: str, key: Hashable,
                         values: Dict[ColumnName, Any], w: int):
        coordinator = self.cluster.coordinator(master_id)
        ts = self._oracle_for(master_id).next()
        cells = {column: Cell.make(value, ts)
                 for column, value in values.items()}
        yield from coordinator.put(table, key, cells, w)
        for view in self._by_table.get(table, ()):
            if view.affects(cells):
                # Ordered, asynchronous propagation: the next update to
                # this row queues behind this propagation in the chain,
                # so view updates apply in master serialization order.
                yield from self._propagate(coordinator, view, key, values,
                                           ts)
        return ts

    def _propagate(self, coordinator, view: ViewDefinition,
                   base_key: Hashable, values: Dict[ColumnName, Any],
                   ts: int):
        """No guessing, no stale rows: the master knows the current key."""
        self.propagations += 1
        quorum = max(1, self.cluster.config.replication_factor // 2 + 1)
        state_key = (view.name, base_key)
        old_key = self._current.get(state_key)

        new_key = old_key
        if view.view_key_column in values:
            raw = values[view.view_key_column]
            new_key = raw if view.accepts_key(raw) else None

        if new_key != old_key:
            if new_key is not None:
                # The new live row: ordered propagation.
                row_cells = {
                    view_column(base_key, NEXT_COLUMN):
                        Cell(new_key, view_timestamp(ts, PHASE_LIVE)),
                }
                for column in view.materialized_columns:
                    if column in values and values[column] is not None:
                        row_cells[view_column(base_key, column)] = Cell(
                            values[column], view_timestamp(ts, PHASE_ROW))
                yield from coordinator.put(view.name, new_key, row_cells,
                                           quorum)
                if old_key is not None:
                    # Carry over materialized values not in this update.
                    yield from self._copy_forward(coordinator, view,
                                                  base_key, old_key,
                                                  new_key)
            if old_key is not None:
                # Tombstone the old row outright - ordered propagation
                # guarantees nothing will ever need it again.
                dead = {
                    view_column(base_key, NEXT_COLUMN):
                        Cell.make(None, view_timestamp(ts, PHASE_STALE)),
                }
                for column in view.materialized_columns:
                    dead[view_column(base_key, column)] = Cell.make(
                        None, view_timestamp(ts, PHASE_STALE))
                yield from coordinator.put(view.name, old_key, dead, quorum)
            self._current[state_key] = new_key
        elif new_key is not None:
            # Materialized-only update to the current live row.
            materialized = {
                view_column(base_key, column):
                    Cell.make(values[column], view_timestamp(ts, PHASE_ROW))
                for column in view.materialized_columns if column in values
            }
            if materialized:
                yield from coordinator.put(view.name, new_key, materialized,
                                           quorum)

    def _copy_forward(self, coordinator, view: ViewDefinition,
                      base_key: Hashable, old_key: Any, new_key: Any):
        if not view.materialized_columns:
            return
        columns = tuple(view_column(base_key, column)
                        for column in view.materialized_columns)
        quorum = max(1, self.cluster.config.replication_factor // 2 + 1)
        merged = yield from coordinator.get(view.name, old_key, columns,
                                            quorum)
        carried = {column: cell for column, cell in merged.items()
                   if not cell.is_null}
        if carried:
            yield from coordinator.put(view.name, new_key, carried, quorum)

    # -- reads ------------------------------------------------------------------

    def view_get(self, coordinator, view_name: str, view_key: Any,
                 columns: Tuple[ColumnName, ...], r: int):
        """Algorithm 4 reads work unchanged on master-maintained views."""
        from repro.views import read as view_read

        view = self.view(view_name)
        results = yield from view_read.view_get(
            coordinator, view, view_key, tuple(columns), r)
        return results
