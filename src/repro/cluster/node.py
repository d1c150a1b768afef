"""A storage node: local engine + CPU + request handlers.

Each node owns an in-memory :class:`LocalStorageEngine`, a CPU modelled as
a :class:`Resource` with ``cores_per_node`` slots, and the local fragments
of any native secondary indexes.  A request's handler is two callbacks:
:meth:`StorageNode.dispatch` returns ``(cost, finish)``, the service
time the network books on this node's CPU as the request arrives
(:meth:`StorageNode.book`), and what runs when that charge ends — the
storage operation, performed atomically (nothing else runs between
reading and writing local state), returning the response.  A write's
deferred work is booked on the CPU without an event: it delays later
charges, and nobody waits for it.

Each step is one pass: ``dispatch`` finds the handler by the request's
type in a class-level table (plain functions, so a node holds no bound
method of itself), a write on a node with no index fragment neither
prices nor maintains one, and its cells reach the row in one
``Row.apply`` (``LocalStorageEngine.apply``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.messages import (
    GetThenPutRequest,
    GetThenPutResponse,
    IndexScanRequest,
    IndexScanResponse,
    ReadRequest,
    ReadResponse,
    ReadRowRequest,
    ReadRowResponse,
    WriteAck,
    WriteRequest,
)
from repro.cluster.storage import LocalStorageEngine
from repro.common.records import Cell, ColumnName
from repro.errors import ClusterError
from repro.index import IndexSchema, LocalIndexFragment
from repro.sim.kernel import Environment, Event
from repro.sim.resources import Resource

__all__ = ["StorageNode"]


class StorageNode:
    """One server of the multi-master cluster."""

    def __init__(self, env: Environment, node_id: int, config: ClusterConfig,
                 index_schema: IndexSchema):
        self.env = env
        self.node_id = node_id
        self.config = config
        self.service = config.service
        self.cpu = Resource(env, capacity=config.cores_per_node)
        self.engine = LocalStorageEngine()
        self.index_schema = index_schema
        self._fragments: Dict[Tuple[str, ColumnName], LocalIndexFragment] = {}
        self.is_down = False
        # Gray failure: multiplier on every CPU service time (a thermally
        # throttled or noisy-neighbor node — up, but slow).
        self.cpu_slowdown = 1.0
        # Observability counters.
        self.requests_handled = 0
        self.busy_time = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "down" if self.is_down else "up"
        return f"<StorageNode {self.node_id} {state}>"

    # -- lifecycle -------------------------------------------------------------

    def mark_down(self) -> None:
        """Take the node offline: it stops receiving messages."""
        self.is_down = True

    def mark_up(self) -> None:
        """Bring the node back online (its stored state is retained)."""
        self.is_down = False

    def set_cpu_slowdown(self, factor: float) -> None:
        """Inflate every CPU service time by ``factor`` (gray failure).

        ``factor`` must be >= 1; ``1.0`` restores normal speed.  The
        node keeps serving requests — slower, which is exactly what
        makes gray failures harder on quorum systems than crashes: the
        slow replica still counts against timeouts.
        """
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {factor}")
        self.cpu_slowdown = factor

    # -- schema ------------------------------------------------------------------

    def create_table(self, name: str) -> None:
        """Create the local shard of ``name``."""
        self.engine.create_table(name)

    def register_index(self, table: str, column: ColumnName) -> None:
        """Create the local fragment for an index on ``table.column``.

        Rebuilds from locally stored rows so indexes can be added to
        populated tables.
        """
        fragment = LocalIndexFragment(table, column)
        fragment.rebuild(
            (key, self.engine.read(table, key, (column,))[column])
            for key in self.engine.keys(table))
        self._fragments[(table, column)] = fragment

    def fragment(self, table: str, column: ColumnName) -> LocalIndexFragment:
        """The local index fragment for ``table.column``."""
        try:
            return self._fragments[(table, column)]
        except KeyError:
            raise ClusterError(
                f"no index fragment for {table}.{column} on node "
                f"{self.node_id}") from None

    # -- CPU accounting -------------------------------------------------------------

    def _priced(self, duration: float) -> float:
        """``duration`` ms of CPU work as this node runs it (inflated by
        a gray slowdown), counted in ``busy_time``."""
        if self.cpu_slowdown != 1.0:
            duration *= self.cpu_slowdown
        self.busy_time += duration
        return duration

    def charge(self, duration: float) -> Event:
        """Charge ``duration`` ms of CPU, queuing FIFO behind other work.

        Returns the event that fires when the work is done: one kernel
        event, the timer at its end (:meth:`Resource.hold`).  Work nobody
        waits for, the deferred part of a write, is booked by
        :meth:`_apply_write` with no event at all.
        """
        return self.cpu.hold(self._priced(duration))

    def book(self, duration: float) -> float:
        """:meth:`charge` without the event: book ``duration`` ms of CPU
        and return the instant the work ends, for a caller that arms
        its own timer there (a request's service time,
        ``cluster/network.py``)."""
        return self.cpu.book(self._priced(duration))

    # -- dispatch -------------------------------------------------------------------

    def dispatch(self, request) -> Tuple[float, Callable[[], Any]]:
        """Handle ``request``: ``(cost, finish)``, its CPU service time
        and the callable that performs it once charged, returning the
        response.  The handler is looked up by the request's type in
        the class's table (:data:`_HANDLERS`)."""
        self.requests_handled += 1
        try:
            handler = self._HANDLERS[type(request)]
        except KeyError:
            raise ClusterError(
                f"unknown request type {type(request).__name__}") from None
        return handler(self, request)

    # -- handlers -----------------------------------------------------------------

    def _index_maintenance_cost(self, table: str,
                                cells: Dict[ColumnName, Cell]) -> float:
        """What keeping the indexed columns' fragments costs; its
        callers ask only on a node that holds a fragment."""
        indexed = self.index_schema.columns_for(table)
        if not indexed:
            return 0.0
        touched = sum(1 for column in cells if column in indexed)
        return touched * self.service.index_update

    def _apply_write(self, table: str, key: Hashable,
                     cells: Dict[ColumnName, Cell]) -> bool:
        """Apply a write and maintain local index fragments; atomic."""
        changed = self.engine.apply(table, key, cells)
        fragments = self._fragments
        if fragments:
            for column, (old, new) in changed.items():
                fragment = fragments.get((table, column))
                if fragment is not None:
                    fragment.on_cell_changed(key, old, new)
        # Deferred write work (commit log, memtable churn): charged to
        # this node's CPU asynchronously, off the acknowledgement path.
        background = self.service.write_background
        if background > 0:
            self.cpu.defer(self._priced(background))
        return bool(changed)

    def _handle_write(self, request: WriteRequest):
        def finish():
            applied = self._apply_write(request.table, request.key,
                                        request.cells)
            return WriteAck(self.node_id, applied)

        cost = self.service.write_cost(len(request.cells))
        if self._fragments:
            cost += self._index_maintenance_cost(request.table,
                                                 request.cells)
        return cost, finish

    def _handle_read(self, request: ReadRequest):
        def finish():
            return ReadResponse(self.node_id, self.engine.read(
                request.table, request.key, request.columns))

        return self.service.read_cost(len(request.columns)), finish

    def _handle_read_row(self, request: ReadRowRequest):
        def finish():
            # Read after the service delay so the response reflects the
            # state at completion time (the delay models work, not
            # staleness).
            return ReadRowResponse(self.node_id, self.engine.read_row(
                request.table, request.key))

        width = self.engine.row_width(request.table, request.key)
        return self.service.read_cost(max(1, width)), finish

    def _handle_get_then_put(self, request: GetThenPutRequest):
        def finish():
            # Read-then-write in one callback: atomic at this replica.
            pre = self.engine.read(request.table, request.key,
                                   request.read_columns)
            applied = self._apply_write(request.table, request.key,
                                        request.cells)
            return GetThenPutResponse(self.node_id, pre, applied)

        cost = (self.service.read_cost(len(request.read_columns))
                + self.service.write_cost(len(request.cells)))
        if self._fragments:
            cost += self._index_maintenance_cost(request.table,
                                                 request.cells)
        return cost, finish

    def _handle_index_scan(self, request: IndexScanRequest):
        fragment = self.fragment(request.table, request.column)

        def finish():
            # Snapshot after the delay; lookup again for current truth.
            result: Dict[Hashable, Dict[ColumnName, Optional[Cell]]] = {
                key: self.engine.read(request.table, key, request.columns)
                for key in fragment.lookup(request.value)}
            return IndexScanResponse(self.node_id, result)

        matches = fragment.lookup(request.value)
        return (self.service.index_scan
                + self.service.per_cell * len(matches) * len(request.columns),
                finish)

    # Request type -> handler: plain functions, so no node holds bound
    # methods of itself.
    _HANDLERS = {
        WriteRequest: _handle_write,
        ReadRequest: _handle_read,
        ReadRowRequest: _handle_read_row,
        GetThenPutRequest: _handle_get_then_put,
        IndexScanRequest: _handle_index_scan,
    }
