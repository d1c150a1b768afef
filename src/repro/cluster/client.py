"""Client handles: the application-facing Get/Put API (paper Section II).

A :class:`ClientHandle` is bound to one coordinator server (as in the
paper's session mechanism) and owns a timestamp oracle.  Its methods are
simulation processes (``yield from`` them inside other processes, or drive
them with ``env.process``).  :class:`SyncClient` wraps a handle for
ordinary blocking code: each call runs the simulation until the operation
completes.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Optional, Tuple

from repro.cluster.network import CLIENT
from repro.common.records import Cell, ColumnName
from repro.common.timestamps import TimestampOracle
from repro.errors import NodeDownError, SessionError, ViewNotUpdatableError
from repro.sim.kernel import Timeout

__all__ = ["ClientHandle", "SyncClient"]


class ClientHandle:
    """One application client connected to a fixed coordinator server."""

    def __init__(self, cluster, client_id: int, coordinator_id: int):
        self.cluster = cluster
        self.client_id = client_id
        self.coordinator_id = coordinator_id
        # The oracle reads this client's (possibly skewed) wall clock —
        # see Cluster.client_clock(); adversaries drift it mid-run.
        self.oracle = TimestampOracle(client_id, cluster.client_clock(client_id))
        self.session = None

    # -- plumbing ------------------------------------------------------------

    def _coordinator(self):
        coordinator = self.cluster.coordinators[self.coordinator_id]
        if coordinator.node.is_down:
            raise NodeDownError(
                f"coordinator node {self.coordinator_id} is down")
        return coordinator

    def _hop(self):
        """The timeout for one client<->coordinator network hop.

        ``yield`` the result directly (not ``yield from``): a plain
        timeout avoids a nested generator per hop, and every operation
        pays two hops.  The link's bound draw is made here, as
        ``Network.rpc`` makes it, unless a slowdown is armed.
        """
        network = self.cluster.network
        delay = (network.one_way_delay(CLIENT, self.coordinator_id)
                 if network._slowdowns else network._client_draw())
        return Timeout(self.cluster.env, delay)

    def _make_cells(self, values: Dict[ColumnName, Any],
                    timestamp: Optional[int]) -> Tuple[Dict[ColumnName, Cell], int]:
        ts = timestamp if timestamp is not None else self.oracle.next()
        return {column: Cell.make(value, ts)
                for column, value in values.items()}, ts

    # -- sessions (paper Section V) -------------------------------------------

    def begin_session(self):
        """Start a session for read-your-own-propagations guarantees."""
        manager = self.cluster.view_manager
        if manager is None:
            raise SessionError("sessions require at least one view")
        self.session = manager.sessions.create(self.coordinator_id)
        return self.session

    def end_session(self) -> None:
        """End the current session."""
        if self.session is not None:
            self.cluster.view_manager.sessions.end(self.session)
            self.session = None

    # -- operations --------------------------------------------------------------

    def put(self, table: str, key: Hashable, values: Dict[ColumnName, Any],
            w: int = 1, timestamp: Optional[int] = None):
        """Put ``values`` into row ``key`` with write quorum ``w``.

        ``None`` values delete cells (tombstones).  All cells share one
        timestamp (supplied or drawn from the client's oracle).  If views
        depend on the touched columns, the coordinator runs Algorithm 1
        (Put with update propagation).  Returns the timestamp used.
        """
        manager = self.cluster.view_manager
        if manager is not None and manager.is_view(table):
            raise ViewNotUpdatableError(
                f"{table!r} is a view; views are not updateable "
                "(paper Section III)")
        cells, ts = self._make_cells(values, timestamp)
        yield self._hop()
        coordinator = self._coordinator()
        if manager is not None and manager.views_affected(table, cells):
            yield from manager.base_put(coordinator, table, key, cells, w,
                                        session=self.session)
        else:
            yield from coordinator.put(table, key, cells, w)
            # A view registered while the write was in flight gets its
            # records now (ViewManager.append_records).
            manager = self.cluster.view_manager
            if manager is not None and manager.views_affected(table, cells):
                yield from manager.append_records(coordinator, table, key,
                                                  cells, session=self.session)
        yield self._hop()
        return ts

    def get(self, table: str, key: Hashable,
            columns: Iterable[ColumnName], r: int = 1):
        """Get ``columns`` of row ``key`` with read quorum ``r``.

        Returns ``{column: (value, timestamp)}``; never-written and
        deleted cells read as ``(None, ts)`` per the paper's NULL rule.
        """
        columns = tuple(columns)
        yield self._hop()
        coordinator = self._coordinator()
        merged = yield from coordinator.get(table, key, columns, r)
        yield self._hop()
        return {column: cell.reads_as() for column, cell in merged.items()}

    def get_by_index(self, table: str, column: ColumnName, value: Any,
                     columns: Iterable[ColumnName]):
        """Secondary-index lookup: all rows with ``column == value``.

        Returns ``{base_key: {column: (value, timestamp)}}``.  This is the
        scatter-gather path whose cost the paper measures (SI).
        """
        columns = tuple(columns)
        yield self._hop()
        coordinator = self._coordinator()
        merged = yield from coordinator.index_read(table, column, value, columns)
        yield self._hop()
        return {
            key: {col: cell.reads_as() for col, cell in cells.items()}
            for key, cells in merged.items()
        }

    def get_join(self, join_name: str, join_key: Any,
                 left_columns: Iterable[ColumnName],
                 right_columns: Iterable[ColumnName], r: int = 1):
        """Read matched pairs from an equi-join view.

        Returns a list of :class:`~repro.views.joins.JoinResult`.  Under
        a session, blocks until this session's pending propagations to
        both child views complete.
        """
        manager = self.cluster.view_manager
        if manager is None:
            raise SessionError(f"no views defined (wanted {join_name!r})")
        yield self._hop()
        coordinator = self._coordinator()
        results = yield from manager.joins.get(
            manager, coordinator, join_name, join_key, tuple(left_columns),
            tuple(right_columns), r, session=self.session)
        yield self._hop()
        return results

    def get_view(self, view_name: str, view_key: Any,
                 columns: Iterable[ColumnName], r: int = 1):
        """Algorithm 4: read matching live view rows.

        Returns a list of :class:`~repro.views.read.ViewResult`, one per
        live view row with the given view key (a view may hold several).
        Under a session, blocks until this session's pending propagations
        to the view have completed (paper Section V).
        """
        columns = tuple(columns)
        manager = self.cluster.view_manager
        if manager is None:
            raise SessionError(f"no views defined (wanted {view_name!r})")
        yield self._hop()
        coordinator = self._coordinator()
        results = yield from manager.view_get(coordinator, view_name,
                                              view_key, columns, r,
                                              session=self.session)
        yield self._hop()
        return results

    def get_view_fresh(self, view_name: str, view_key: Any,
                       columns: Iterable[ColumnName], r: int = 1,
                       max_staleness_ms: Optional[float] = None):
        """Bounded-staleness view read with a staleness certificate.

        Like :meth:`get_view`, but returns a
        :class:`~repro.freshness.read.FreshViewRead` whose certificate
        states how far behind the base table the served rows can be.
        With ``max_staleness_ms`` set, the read either serves from the
        view (certificate within bound) or escalates to a compensation
        read that merges fresh base-table state over the lagging keys.
        ``None`` means no bound: serve from the view, certificate
        attached.
        """
        columns = tuple(columns)
        manager = self.cluster.view_manager
        if manager is None:
            raise SessionError(f"no views defined (wanted {view_name!r})")
        yield self._hop()
        coordinator = self._coordinator()
        fresh = yield from manager.view_get_fresh(
            coordinator, view_name, view_key, columns, r,
            max_staleness_ms=max_staleness_ms, session=self.session)
        yield self._hop()
        return fresh


class SyncClient:
    """Blocking façade: each call runs the simulation to completion.

    Intended for examples and interactive use where only one logical
    client drives the cluster.  Background activity (propagation, hint
    replay) continues to be simulated while a call blocks.
    """

    def __init__(self, handle: ClientHandle):
        self.handle = handle
        self.cluster = handle.cluster

    def _drive(self, generator):
        process = self.cluster.env.process(generator)
        return self.cluster.env.run(until=process)

    def put(self, table, key, values, w: int = 1,
            timestamp: Optional[int] = None):
        """Blocking Put; see :meth:`ClientHandle.put`."""
        return self._drive(self.handle.put(table, key, values, w, timestamp))

    def get(self, table, key, columns, r: int = 1):
        """Blocking Get; see :meth:`ClientHandle.get`."""
        return self._drive(self.handle.get(table, key, columns, r))

    def get_by_index(self, table, column, value, columns):
        """Blocking index lookup; see :meth:`ClientHandle.get_by_index`."""
        return self._drive(self.handle.get_by_index(table, column, value,
                                                    columns))

    def get_view(self, view_name, view_key, columns, r: int = 1):
        """Blocking view read; see :meth:`ClientHandle.get_view`."""
        return self._drive(self.handle.get_view(view_name, view_key,
                                                columns, r))

    def get_view_fresh(self, view_name, view_key, columns, r: int = 1,
                       max_staleness_ms: Optional[float] = None):
        """Blocking bounded-staleness view read; see
        :meth:`ClientHandle.get_view_fresh`."""
        return self._drive(self.handle.get_view_fresh(
            view_name, view_key, columns, r,
            max_staleness_ms=max_staleness_ms))

    def get_join(self, join_name, join_key, left_columns, right_columns,
                 r: int = 1):
        """Blocking join read; see :meth:`ClientHandle.get_join`."""
        return self._drive(self.handle.get_join(
            join_name, join_key, left_columns, right_columns, r))

    def begin_session(self):
        """Start a session on the underlying handle."""
        return self.handle.begin_session()

    def end_session(self) -> None:
        """End the current session."""
        self.handle.end_session()

    def settle(self) -> None:
        """Run the simulation until all in-flight work drains."""
        self.cluster.run_until_idle()
