"""A storage node: local engine + CPU + request handlers.

Each node owns an in-memory :class:`LocalStorageEngine`, a CPU modelled as
a :class:`Resource` with ``cores_per_node`` slots, and the local fragments
of any native secondary indexes.  A request's handler is two plain
functions: :meth:`StorageNode.dispatch` returns ``(cost, finish)``, the
service time ``cost(node, request)`` the network books on this node's
CPU as the request arrives (``node.cpu.book``), and the function
``finish(node, request)`` that runs when that charge ends — the storage
operation, performed atomically (nothing else runs between reading and
writing local state), returning the response.  A write's deferred work
is booked on the CPU without an event: it delays later charges, and
nobody waits for it.  A coordinator's own overhead is
``node.cpu.hold(...)``: one kernel event, the timer at its end.

Each step is one pass: ``dispatch`` finds the pair by the request's
type in a class-level table (no closure per request, and no node holds
a bound method of itself), the CPU prices each booking (a gray
slowdown, ``busy_time``) in the one frame that books it, a write on a
node with no index fragment neither prices nor maintains one, and its
cells reach the row in one ``Row.apply`` (``LocalStorageEngine.apply``).
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
from repro.sim.kernel import Environment
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
        # Observability counter.
        self.requests_handled = 0

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

    @property
    def cpu_slowdown(self) -> float:
        """Gray failure: the multiplier on every CPU service time (a
        thermally throttled or noisy-neighbor node — up, but slow)."""
        return self.cpu.slowdown

    @property
    def busy_time(self) -> float:
        """CPU milliseconds booked on this node, slowdown included."""
        return self.cpu.busy_time

    def set_cpu_slowdown(self, factor: float) -> None:
        """Inflate every CPU service time by ``factor`` (gray failure).

        ``factor`` must be >= 1; ``1.0`` restores normal speed.  The
        node keeps serving requests — slower, which is exactly what
        makes gray failures harder on quorum systems than crashes: the
        slow replica still counts against timeouts.
        """
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {factor}")
        self.cpu.slowdown = factor

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

    # -- dispatch -------------------------------------------------------------------

    def dispatch(self, request
                 ) -> Tuple[float, Callable[["StorageNode", Any], Any]]:
        """Handle ``request``: ``(cost, finish)``, its CPU service time
        and the function that performs it once charged,
        ``finish(node, request)``, returning the response.  Both come
        from the request type's entry in the class's table
        (:data:`_HANDLERS`)."""
        self.requests_handled += 1
        try:
            cost, finish = self._HANDLERS[type(request)]
        except KeyError:
            raise ClusterError(
                f"unknown request type {type(request).__name__}") from None
        return cost(self, request), finish

    # -- handlers -----------------------------------------------------------------

    def _index_maintenance_cost(self, request) -> float:
        """What keeping the indexed columns' fragments costs a write's
        cells; its callers ask only on a node that holds a fragment."""
        indexed = self.index_schema.columns_for(request.table)
        if not indexed:
            return 0.0
        touched = sum(1 for column in request.cells if column in indexed)
        return touched * self.service.index_update

    def _apply_write(self, table: str, key: Hashable,
                     cells: Dict[ColumnName, Cell]) -> None:
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
            self.cpu.defer(background)

    def _write_cost(self, request: WriteRequest) -> float:
        cost = self.service.write_cost(len(request.cells))
        if self._fragments:
            cost += self._index_maintenance_cost(request)
        return cost

    def _write(self, request: WriteRequest) -> WriteAck:
        self._apply_write(request.table, request.key, request.cells)
        return WriteAck(self.node_id)

    def _read_cost(self, request: ReadRequest) -> float:
        return self.service.read_cost(len(request.columns))

    def _read(self, request: ReadRequest) -> ReadResponse:
        return ReadResponse(self.node_id, self.engine.read(
            request.table, request.key, request.columns))

    def _read_row_cost(self, request: ReadRowRequest) -> float:
        width = self.engine.row_width(request.table, request.key)
        return self.service.read_cost(max(1, width))

    def _read_row(self, request: ReadRowRequest) -> ReadRowResponse:
        # Read after the service delay, so the response reflects the state
        # at completion time (the delay models work, not staleness).
        return ReadRowResponse(self.node_id, self.engine.read_row(
            request.table, request.key))

    def _get_then_put_cost(self, request: GetThenPutRequest) -> float:
        cost = (self.service.read_cost(len(request.read_columns))
                + self.service.write_cost(len(request.cells)))
        if self._fragments:
            cost += self._index_maintenance_cost(request)
        return cost

    def _get_then_put(self, request: GetThenPutRequest) -> GetThenPutResponse:
        # Read-then-write in one callback: atomic at this replica.
        pre = self.engine.read(request.table, request.key,
                               request.read_columns)
        self._apply_write(request.table, request.key, request.cells)
        return GetThenPutResponse(self.node_id, pre)

    def _index_scan_cost(self, request: IndexScanRequest) -> float:
        # An unknown fragment raises here, in dispatch.
        matches = self.fragment(request.table, request.column).lookup(
            request.value)
        return (self.service.index_scan
                + self.service.per_cell * len(matches) * len(request.columns))

    def _index_scan(self, request: IndexScanRequest) -> IndexScanResponse:
        # Snapshot after the delay; lookup again for current truth.
        fragment = self.fragment(request.table, request.column)
        result: Dict[Hashable, Dict[ColumnName, Optional[Cell]]] = {
            key: self.engine.read(request.table, key, request.columns)
            for key in fragment.lookup(request.value)}
        return IndexScanResponse(self.node_id, result)

    # Request type -> (cost, finish): plain functions, so no node holds
    # bound methods of itself and no request allocates a closure.
    _HANDLERS = {
        WriteRequest: (_write_cost, _write),
        ReadRequest: (_read_cost, _read),
        ReadRowRequest: (_read_row_cost, _read_row),
        GetThenPutRequest: (_get_then_put_cost, _get_then_put),
        IndexScanRequest: (_index_scan_cost, _index_scan),
    }
