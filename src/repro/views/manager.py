"""View manager: the view registry and Algorithm 1's ingest half.

The manager owns the view registry and what a coordinator does when a
base-table Put touches view-relevant columns (paper Algorithm 1):

1. read the current view-key versions from the base row's replicas (all
   versions, not just the latest) — combined with the Put into one
   replica round trip when ``combined_get_then_put`` is enabled, and
   skipped when no record would read them: each chain is pristine or
   held by the coordinator (``drive.skips_base_read``);
2. perform the base Put and acknowledge the client at W replicas;
3. append the committed update to the coordinator node's
   :class:`~repro.views.outbox.NodeOutbox`.

What happens after the append is :mod:`repro.views.drive`; the session
barrier and the Algorithm 4 read are in :mod:`repro.views.read`.
The manager holds the state they share (counters, the
``view-propagation`` RNG stream, the outboxes) and the one function
that decides how same-chain work is serialized (Section IV-F,
:meth:`ViewManager.serialized`: the row's lock, or its dedicated
propagator picked by consistent hashing; the job runs in the caller's
own process either way).

Base Puts block while their node's outbox is full, and the records of
a heavy chain fold (:mod:`repro.views.outbox`).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.common.hashing import TokenRing
from repro.common.records import Cell, ColumnName
from repro.errors import (
    NoSuchViewError,
    ViewDefinitionError,
    ViewExistsError,
)
from repro.freshness.certificate import FreshnessTracker
from repro.freshness.read import fresh_view_get
from repro.freshness.slo import FreshnessSLO
from repro.views import read as view_read
from repro.views.definition import ViewDefinition
from repro.views.drive import process_record, skips_base_read
from repro.views.joins import JoinRegistry
from repro.views.locks import LockService
from repro.views.maintenance import ViewMaintainer
from repro.views.outbox import NodeOutbox
from repro.views.session import SessionManager
from repro.views.skew import SkewService

__all__ = ["ViewManager"]

# One round trip to the lock service per acquire/release (ms).
LOCK_SERVICE_LATENCY = 0.05
# Poll interval while a row's dedicated propagator is down (ms).
DOWN_POLL_INTERVAL = 10.0


class ViewManager:
    """Registry plus maintenance/read orchestration for one cluster."""

    def __init__(self, cluster):
        # The parts of ``cluster`` the views use; the cluster itself is
        # not kept (it holds the manager: see ``Cluster``).
        self.env = cluster.env
        self.config = cluster.config
        self.network = cluster.network
        self.nodes = cluster.nodes
        self.coordinators = cluster.coordinators
        self.tracer = cluster.tracer
        self.maintainer = ViewMaintainer(
            self.env, self.config.replication_factor, self.tracer)
        self.sessions = SessionManager(cluster.env)
        self.locks = LockService(cluster.env, latency=LOCK_SERVICE_LATENCY)
        # Under "propagators", the ring that picks each base row's
        # dedicated propagator (propagator_for); None under "locks".
        self.propagator_ring = (
            TokenRing([c.node.node_id for c in self.coordinators],
                      salt="propagators")
            if self.config.propagation_concurrency == "propagators"
            else None)
        self._rng = cluster.streams.stream("view-propagation")
        self._views: Dict[str, ViewDefinition] = {}
        self.joins = JoinRegistry()
        self._by_table: Dict[str, List[ViewDefinition]] = {}
        # One log per node; the manager starts a process per record as
        # the outbox hands it over (start_record).
        self._outboxes: Dict[int, NodeOutbox] = {
            node.node_id: NodeOutbox(self.env, node.node_id,
                                     self.config.max_pending_propagations)
            for node in self.nodes}
        # Fencing tokens: jobs started per chain, view name -> base key
        # -> count (see serialized).
        self._turns: Dict[str, Dict[Hashable, int]] = {}
        # Per chain: base Puts written but not yet appended (base_put);
        # a chain with none has no entry.
        self._puts_in_flight: Dict[Tuple[str, Hashable], int] = {}
        # Observability.
        self.completed_propagations = 0
        self.lost_propagations = 0
        self.abandoned_propagations = 0
        self._crash_hooks: List[Callable] = []  # see add_crash_hook
        # Heavy/light classifier (repro.views.skew); inert (nothing
        # heavy) unless configured on.
        self.skew = SkewService(self)
        # Freshness subsystem (repro.freshness): staleness certificates
        # derived from outbox/wound metadata, plus the SLO
        # accounting for bounded-staleness reads.
        self.freshness = FreshnessTracker(self.env, self._outboxes)
        self.freshness_slo = FreshnessSLO()

    def start_record(self, outbox: NodeOutbox, record) -> None:
        """Start the process that propagates ``record``, which ``outbox``
        handed over as its chain fell free."""
        self.env.process(process_record(self, outbox, record),
                         name=f"outbox-record:{outbox.node_id}:{record.seq}")

    @property
    def pending_propagations(self) -> int:
        """Propagations accepted but not yet resolved (parked or
        started, with a backpressure token or without)."""
        return sum(outbox.depth + outbox.token_free
                   for outbox in self._outboxes.values())

    # -- registry -----------------------------------------------------------

    def register(self, definition: ViewDefinition) -> None:
        """Register a view and create its backing table."""
        if definition.name in self._views:
            raise ViewExistsError(definition.name)
        if definition.base_table in self._views:
            raise ViewDefinitionError(
                f"base table {definition.base_table!r} is itself a view; "
                "views on views are not supported")
        engine = self.nodes[0].engine
        if not engine.has_table(definition.base_table):
            raise ViewDefinitionError(
                f"base table {definition.base_table!r} does not exist")
        if engine.has_table(definition.name):
            raise ViewDefinitionError(
                f"a table named {definition.name!r} already exists")
        for node in self.nodes:
            node.create_table(definition.name)
        self._views[definition.name] = definition
        self._turns[definition.name] = {}
        self._by_table.setdefault(definition.base_table, []).append(definition)

    def view(self, name: str) -> ViewDefinition:
        """Look up a registered view by name."""
        try:
            return self._views[name]
        except KeyError:
            raise NoSuchViewError(name) from None

    def is_view(self, name: str) -> bool:
        """True if ``name`` is a registered view."""
        return name in self._views

    def view_names(self) -> List[str]:
        """All registered view names."""
        return list(self._views)

    def views_affected(self, table: str, cells: Dict[ColumnName, Any]
                       ) -> List[ViewDefinition]:
        """The views a Put touching ``cells`` propagates to (empty if
        none: a plain Put)."""
        return [view for view in self._by_table.get(table, ())
                if view.affects(cells)]

    # -- Algorithm 1: base Put with update propagation ------------------------

    def base_put(self, coordinator, table: str, key: Hashable,
                 cells: Dict[ColumnName, Cell], w: int, session=None,
                 affected: Optional[List[ViewDefinition]] = None):
        """Put with propagation; returns after W base-replica acks.

        The Put affects at least one view (``affected``, as
        :meth:`views_affected` found them); propagation to each
        continues asynchronously, and with ``session`` each record's
        completion event is registered for the Section V guarantee.
        """
        affected = affected or self.views_affected(table, cells)
        combined = self.config.combined_get_then_put
        if not combined:  # the peek travels during the charge
            turns, answered_at = self.peek_sequencer(affected, key)
        yield coordinator.node.cpu.hold(self.config.service.coordinator)
        read_columns = tuple(dict.fromkeys(
            view.view_key_column for view in affected))
        collector = None
        if not combined and answered_at > self.env._now:
            yield self.env.timeout_at(answered_at)
        if not combined and not skips_base_read(
                self, coordinator.node.node_id, affected, key, turns):
            # Alg. 1 lines 2-3: Get every replica's version of the view
            # keys (all N are asked), then Put.
            collector = coordinator.scatter_read(table, key, read_columns, w,
                                                 every_replica=True)
            yield collector.wait(w)

        # In flight on each chain from its first replica write until its
        # records are appended, or it fails (see chain_epoch).
        chains = [(view.name, key) for view in affected]
        in_flight = self._puts_in_flight
        for chain in chains:
            in_flight[chain] = in_flight.get(chain, 0) + 1
        try:
            if combined:
                # Single round trip: each replica reads its pre-update
                # view keys and applies the write atomically.
                collector = coordinator.scatter_get_then_put(
                    table, key, cells, read_columns, w)
                yield collector.wait(w)
            else:
                yield coordinator.scatter_write(table, key, cells, w).wait(w)
            yield from self.append_records(coordinator, table, key, cells,
                                           collector, session)
        finally:
            for chain in chains:
                count = in_flight.pop(chain) - 1
                if count:
                    in_flight[chain] = count

    def append_records(self, coordinator, table: str, key: Hashable,
                       cells: Dict[ColumnName, Cell],
                       source=None, session=None):
        """Algorithm 1 line 3 for a Put whose write has acked: append a
        record per view it affects, ``source`` the collector of its
        view-key read (each response's ``cells``).  A plain Put calls
        this with none for a view registered while its write was in
        flight."""
        affected = self.views_affected(table, cells)
        base_ts = max(cell.timestamp for cell in cells.values())
        if self.tracer.enabled:
            self.tracer.emit("base_put", "acked; scheduling propagation",
                             table=table, key=key, ts=base_ts,
                             views=[view.name for view in affected])
        outbox = self._outboxes[coordinator.node.node_id]
        for view in affected:
            heavy = self.skew.observe(outbox.node_id, view, key)
            if not heavy:
                # Back-pressure: block the Put while the node's outbox
                # (queued + in-flight records) is full.
                yield outbox.backpressure.acquire()
            # The completion event resolves when the record's
            # propagation does; a session barrier waits on it but never
            # consumes a failure, so it is defused.
            completion = self.env.event().defuse()
            before = outbox.coalesced
            # The watched columns as raw values (None for tombstones).
            update_values = {column: cell.value
                             for column, cell in cells.items()
                             if column in view.watched_columns}
            record, starts = outbox.append(view, table, key, update_values,
                                           base_ts, source, completion, heavy)
            if starts:
                self.start_record(outbox, record)
            if self.tracer.enabled and outbox.coalesced != before:
                self.tracer.emit("outbox", "coalesced superseded update",
                                 view=view.name, key=key, seq=record.seq)
            if session is not None:
                self.sessions.register(session, view.name, completion)

    def serialized(self, coordinator, view: ViewDefinition, key: Hashable,
                   job: Callable):
        """Run ``job(executor, turn)`` — a generator — serialized against
        other work on the ``(view, key)`` chain; returns the job's result.

        Both §IV-F mechanisms queue on the row's one-token FIFO in
        :attr:`locks`, and every job, whatever it writes, takes the row
        exclusively (``views/locks.py``).  The job runs in the caller's
        own process either way.  Under ``"locks"`` the executor is the
        caller's coordinator, holding the row's lock for exactly the
        job's duration.  Under ``"propagators"`` it is the row's
        dedicated propagator (:meth:`propagator_for`): the caller queues
        for the row at once, with no round trip, so the row's jobs run
        in submit order; it then pays the hop to the propagator's node
        and, while that node is down, waits for it to recover (a real
        deployment would re-home the propagator; waiting keeps the
        serialization with much less machinery).

        ``turn`` numbers the chain's jobs in the order they start: the
        fencing token a lock service's sequencer or a propagator's job
        counter provides.  Every chain writer passes here, so a job
        whose turn directly follows that of its executor's last move
        knows nobody has held the chain in between
        (``ViewMaintainer.propagate_update``).
        """
        if self.propagator_ring is None:
            yield from self.locks.acquire(view.name, key)
        else:
            grant = self.locks.request(view.name, key)
            source = coordinator.node.node_id
            owner = self.propagator_for(view.name, key)
            if owner != source:
                yield self.env.timeout(
                    self.network.one_way_delay(source, owner))
            yield grant
            coordinator = self.coordinators[owner]
            while coordinator.node.is_down:
                yield self.env.timeout(DOWN_POLL_INTERVAL)
        turns = self._turns[view.name]
        turn = turns[key] = turns.get(key, 0) + 1
        try:
            result = yield from job(coordinator, turn)
        finally:
            self.locks.release(view.name, key)
        return result

    def propagator_for(self, view_name: str, base_key: Hashable) -> int:
        """The node id hosting the row's dedicated propagator
        (consistent hashing of the row; ``"propagators"`` only)."""
        return self.propagator_ring.primary((view_name, base_key))

    def peek_sequencer(self, views: List[ViewDefinition], key: Hashable):
        """``(turns, answered_at)``: the turn :meth:`serialized` last handed
        out on each view's chain for ``key`` (0 before any), a prediction,
        and when it is back (a lock-service round trip under locks)."""
        latency = (self.locks.latency if self.propagator_ring is None
                   else 0.0)
        return ([self._turns[view.name].get(key, 0) for view in views],
                self.env._now + latency)

    def chain_epoch(self, view_name: str, key: Hashable):
        """The chain's epoch — (records ever appended, jobs ever started
        through :meth:`serialized`) — or None while a base Put is between
        its first replica write and its append, or a started record is
        awake (one asleep in a retry backoff may wait for a scrub repair)."""
        chain = (view_name, key)
        outboxes = self._outboxes.values()
        if chain in self._puts_in_flight or any(o.working(chain)
                                                for o in outboxes):
            return None
        return (sum(o.chain_appends.get(chain, 0) for o in outboxes),
                self._turns[view_name].get(key, 0))

    # -- fault injection -----------------------------------------------------

    def add_crash_hook(self, hook: Callable) -> None:
        """Arm ``hook(coordinator, view, base_key, base_ts) -> bool``.

        Consulted once per asynchronous propagation — after the outbox
        has started the record, once the view-key collection settles
        and the scheduling delay elapses but before Algorithm 2 runs.
        That is the window in which a real coordinator crash silently
        loses the propagation: the record is already out of the log,
        the view not yet written.  A hook returning True raises
        :class:`~repro.errors.CoordinatorCrashError` there, which counts
        the propagation as lost (``lost_propagations``) instead of
        escalating.
        """
        self._crash_hooks.append(hook)

    def remove_crash_hook(self, hook: Callable) -> None:
        """Disarm a hook registered with :meth:`add_crash_hook`."""
        try:
            self._crash_hooks.remove(hook)
        except ValueError:
            pass

    # -- outbox observability -----------------------------------------------

    def outbox_stats(self, hot_key_count: int = 5) -> Dict[str, Any]:
        """Queue depth / lag / coalescing counters across node outboxes.

        ``hot_keys`` ranks the most-appended (view, base key) chains —
        the producer-side ground truth for auditing the skew tracker's
        heavy/light classification."""
        appended = sum(o.appended for o in self._outboxes.values())
        coalesced = sum(o.coalesced for o in self._outboxes.values())
        hot: Counter = Counter()
        for o in self._outboxes.values():
            hot.update(o.chain_appends)
        ranked = sorted(hot.items(),
                        key=lambda item: (-item[1], repr(item[0])))
        return {
            "appended": appended,
            "coalesced": coalesced,
            "coalesce_ratio": (coalesced / appended) if appended else 0.0,
            "depth": sum(o.depth for o in self._outboxes.values()),
            "max_depth": max(
                (o.max_depth for o in self._outboxes.values()), default=0),
            "lag": sum(o.lag for o in self._outboxes.values()),
            "folded": sum(o.folded for o in self._outboxes.values()),
            "hot_keys": [
                {"view": chain[0], "key": chain[1], "appends": count}
                for chain, count in ranked[:hot_key_count]
            ],
            "per_node": {
                node_id: {
                    "appended": o.appended,
                    "coalesced": o.coalesced,
                    "depth": o.depth,
                    "max_depth": o.max_depth,
                    "lag": o.lag,
                }
                for node_id, o in sorted(self._outboxes.items())
            },
        }

    def skew_stats(self) -> Dict[str, Any]:
        """Heavy/light classification counters, with the records the
        outboxes folded because of it."""
        stats = self.skew.stats()
        stats["folded_records"] = sum(
            outbox.folded for outbox in self._outboxes.values())
        return stats

    # -- view reads (Algorithm 4 + Section V) ---------------------------------------

    def view_get(self, coordinator, view_name: str, view_key: Any,
                 columns: Tuple[ColumnName, ...], r: int, session=None):
        """Algorithm 4 behind the session barrier, priced like a base Get."""
        view = self.view(view_name)
        if session is not None:
            yield from view_read.read_barrier(self, coordinator, view, session)
        results = yield from view_read.view_get(
            coordinator, view, view_key, columns, r)
        return results

    def view_get_fresh(self, coordinator, view_name: str, view_key: Any,
                       columns: Tuple[ColumnName, ...], r: int,
                       max_staleness_ms: Optional[float] = None,
                       session=None):
        """Bounded-staleness view read (repro.freshness).

        Returns a :class:`~repro.freshness.read.FreshViewRead`: the live
        rows plus the staleness certificate they were served under.
        With ``max_staleness_ms`` set, a certificate over the bound
        escalates to a base-table compensation read for the lagging
        keys; ``None`` attaches the certificate without ever escalating.
        """
        result = yield from fresh_view_get(
            self, coordinator, view_name, view_key, tuple(columns), r,
            max_staleness_ms, session)
        return result

    def freshness_stats(self) -> Dict[str, Any]:
        """Freshness tracker + SLO counters."""
        stats = self.freshness.stats()
        stats["slo"] = self.freshness_slo.stats()
        return stats
