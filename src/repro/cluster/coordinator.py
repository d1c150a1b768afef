"""Coordinator logic: quorum scatter/gather over replica sets.

Any node can coordinate any request (multi-master, paper Section II).  A
Put is broadcast to all N replicas of the target key and returns on the
first W acknowledgements.  A Get is sent to the R alive replicas that
can start serving it soonest, and returns their answers merged by
timestamp.  The coordinator's own node can start when its own CPU falls
free; another replica when the CPU free-at it stamped on its last reply
to this node (``Network.reply_stamps``) falls due, plus a link round
trip — what Cassandra's dynamic snitch and C3 rank by, and no more than
a real coordinator could know (one pass over the replicas, one sort).
Ties keep the fixed order, the own node first and the others taken in
turn, so an idle cluster reads exactly as that order does.  The
replicas it skipped are asked only if those R answers are not all in
:data:`READ_HEDGE` after the request went out, so a healthy R = 1 read
is one RPC and a lost message, a partition or a gray-slow replica
costs the hedge plus a round trip, not :data:`RPC_TIMEOUT`.  Any R of
N intersect a write quorum as well as the first R of N do.

The own node is read in process: its copy is read (and a Put's
written) as a loopback, which ``Network.rpc`` serves as its CPU charge
with no link.  This module sends every request the same way and never
asks whether the replica is local.

The one broadcast read left is Algorithm 1's (``scatter_read(...,
every_replica=True)``): it wants every replica's view-key version, and
late responses keep arriving in the background —
:class:`ResponseCollector` tracks them — after the client was acked.

Also implements the eventual-delivery helpers: read repair and hinted
handoff.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, List, Optional, Tuple

from repro.cluster.messages import (
    GetThenPutRequest,
    IndexScanRequest,
    ReadRequest,
    ReadRowRequest,
    WriteRequest,
)
from repro.common.records import (
    Cell,
    ColumnName,
    merge_cells,
    merge_rows,
    stale_cells,
)
from repro.common.quorum import validate_quorum
from repro.errors import QuorumError, UnavailableError
from repro.sim.kernel import Environment, Event

__all__ = ["RPC_TIMEOUT", "READ_HEDGE", "QuorumDeadlines",
           "ResponseCollector", "Coordinator"]

# A quorum round fails if fewer than the required responses arrive
# within this budget (ms).
RPC_TIMEOUT = 200.0

# A quorum read asks the replicas it skipped if the R it asked have not
# all answered within this long (ms).  Far inside RPC_TIMEOUT, and
# beyond what a read waits in a saturated but healthy replica's CPU
# queue: a hedge sent to a cluster that is merely busy adds two reads to
# it (at 5 ms the skewed mvbench workload hedged 2.5 % of its reads and
# lost 13 % of its throughput to them; at 20 ms none).
READ_HEDGE = 20.0


class QuorumDeadlines:
    """One delay, kept for every quorum round of one cluster: the
    :data:`RPC_TIMEOUT` of every round, and (a second instance) the
    :data:`READ_HEDGE` of every read that skipped a replica.

    The delay is one value per queue, so deadlines fall due in the
    order their collectors were created: a FIFO of collectors and a
    single armed timer, for the oldest collector still unsettled, stand
    in for a timer per round.  A collector that settles in time costs
    no kernel event and leaves nothing on the heap (the one armed timer
    may outlive the collector it was armed for), and no call when the
    timer passes it; one that does not is expired at exactly its
    creation time plus ``timeout``.
    """

    def __init__(self, env: Environment, timeout: float = RPC_TIMEOUT):
        self.env = env
        self.timeout = timeout
        # (deadline, collector, watched), oldest first; the timer is
        # armed for the head whenever the queue is not empty.
        self._queue: Deque[Tuple[float, "ResponseCollector", object]] = \
            deque()

    def watch(self, collector: "ResponseCollector",
              watched: object = None) -> None:
        """Call ``watched._expire()`` — by default the collector's own,
        the round's timeout; a read's :class:`_Hedge` passes itself —
        ``timeout`` from now unless ``collector.is_settled`` turns true
        first."""
        deadline = self.env._now + self.timeout
        if not self._queue:
            self._arm(deadline)
        self._queue.append((deadline, collector, watched or collector))

    def clear(self) -> None:
        """Forget every watched round (a closed simulation's)."""
        self._queue.clear()

    def _arm(self, deadline: float) -> None:
        self.env.call_at(deadline, self._on_timer)

    def _on_timer(self) -> None:
        """Expire what is due and re-arm for the oldest collector still
        unsettled (none: the heap holds nothing of ours, and an idle
        cluster stays idle)."""
        queue = self._queue
        now = self.env.now
        while queue:
            deadline, collector, watched = queue[0]
            if collector.is_settled:
                queue.popleft()
            elif deadline <= now:
                queue.popleft()
                watched._expire()
            else:
                break
        if queue:
            self._arm(queue[0][0])


class ResponseCollector:
    """Tracks replica responses to one scattered request.

    Made for ``total`` replies, each handed to :meth:`receive` — or a
    handler's exception to :meth:`fail` — by the ``Network.rpc`` it was
    given to; a read's hedge asks more replicas (:meth:`expect`).  Its
    sender puts it on the cluster's :class:`QuorumDeadlines` once the
    requests are out.  ``wait(count)`` returns an event that fires with
    the first ``count`` responses (or fails with :class:`QuorumError`
    if the cluster's :data:`RPC_TIMEOUT` passes first, or with a
    handler's exception).  ``settled`` fires once every replica asked
    has responded or the timeout expired, carrying all responses
    received by then — Algorithm 1 uses this to keep gathering view-key
    guesses after the client was acked.

    Responses arrive inside the reply timer's kernel callback, and
    waiters are woken in place: a quorum round schedules no event of
    its own, and a reply is one call, not an event and a callback.
    """

    __slots__ = ("env", "responses", "_total", "_waiters", "_settled",
                 "_failure", "is_settled", "_timed_out")

    def __init__(self, env: Environment, total: int):
        self.env = env
        self.responses: List[object] = []
        self._total = total
        self._waiters: List[Tuple[int, Event]] = []
        # ``settled`` is created when first asked for: most rounds are
        # never asked, and an event that does not exist needs neither
        # triggering nor (when the round fails) defusing.
        self._settled: Optional[Event] = None
        self._failure: Optional[BaseException] = None
        self.is_settled = False
        self._timed_out = False
        if total == 0:
            self._settle()

    # -- public ----------------------------------------------------------------

    def wait(self, count: int) -> Event:
        """Event firing with the first ``count`` responses."""
        event = Event(self.env)
        if len(self.responses) >= count:
            event.succeed(list(self.responses[:count]))
        elif self._failure is not None:
            event.fail(self._failure)
        elif self._timed_out or count > self._total:
            event.fail(QuorumError(
                f"needed {count} responses, got {len(self.responses)}",
                required=count, received=len(self.responses)))
        else:
            self._waiters.append((count, event))
        return event

    @property
    def settled(self) -> Event:
        """Event firing, with every response received, once all replicas
        have answered or the timeout passed (already processed if that
        has happened: a process yielding it continues at once)."""
        event = self._settled
        if event is None:
            event = self._settled = self.env.event()
            if self._failure is not None:
                event.defuse().fail(self._failure)
            elif self.is_settled:
                event.succeed_now(list(self.responses))
        return event

    def expect(self, count: int) -> None:
        """``count`` more replicas were asked (a read's hedge): their
        replies count with the first ones', and ``settled`` waits for
        them."""
        self._total += count

    def receive(self, response) -> None:
        """One replica's response (called by ``Network.rpc``'s reply
        timer): wakes, in place, every waiter it satisfies."""
        if self._timed_out:
            return
        responses = self.responses
        responses.append(response)
        have = len(responses)
        waiters = self._waiters
        if waiters:
            # Woken in place, a waiter may wait() on this collector
            # again before the loop ends: collect into a fresh list.
            self._waiters = []
            for count, waiter in waiters:
                if count <= have:
                    waiter.succeed_now(responses[:count])
                else:
                    self._waiters.append((count, waiter))
        if have == self._total:
            self._settle()

    def fail(self, exc: BaseException) -> None:
        """A handler raised (called by ``Network.rpc``): every waiter
        gets ``exc`` — programming errors must not be silently converted
        into timeouts — and so does every later one and ``settled``,
        unless the round had already settled.  The round takes no more
        responses."""
        self._timed_out = True
        for _count, waiter in self._waiters:
            waiter.fail(exc)
        self._waiters = []
        if not self.is_settled:
            self.is_settled = True
            self._failure = exc
            if self._settled is not None:
                # ``settled`` is optional to consume; a failure with no
                # waiter must not crash the simulation (waiters still
                # see the raise).
                self._settled.defuse().fail(exc)

    # -- internals -----------------------------------------------------------

    def _expire(self) -> None:
        """The deadline passed (called by :class:`QuorumDeadlines`)."""
        if not self.is_settled:
            self._timed_out = True
            self._settle()

    def _settle(self) -> None:
        self.is_settled = True
        for count, waiter in self._waiters:
            waiter.fail(QuorumError(
                f"needed {count} responses, got {len(self.responses)}",
                required=count, received=len(self.responses)))
        self._waiters = []
        if self._settled is not None:
            self._settled.succeed_now(list(self.responses))


class _Hedge:
    """The replicas one quorum read skipped — its ranked entries after
    the first ``asked``, in position order — on the cluster's
    :data:`READ_HEDGE` queue with the read's collector: asked if the read
    has not settled (its R answers all in) by the time the queue calls,
    which it seldom does, so they are put in order only then."""

    __slots__ = ("coordinator", "collector", "ranked", "asked", "request")

    def __init__(self, coordinator: "Coordinator",
                 collector: ResponseCollector, ranked, asked, request):
        self.coordinator = coordinator
        self.collector = collector
        self.ranked = ranked
        self.asked = asked
        self.request = request

    def _expire(self) -> None:
        coordinator = self.coordinator
        coordinator.hedged_reads += 1
        skipped = sorted(self.ranked[self.asked:], key=lambda entry: entry[1])
        coordinator._collect(
            [replica for _ready, _position, replica in skipped
             if not replica.is_down],
            self.request, into=self.collector)


class Coordinator:
    """The coordination role of one storage node, handed the cluster's
    parts it uses (``deadlines`` for every quorum round, ``hedges`` for
    the reads that skipped a replica)."""

    def __init__(self, node, config, network, nodes, placement, hints,
                 deadlines: QuorumDeadlines, hedges: QuorumDeadlines):
        self.node = node
        self.env = node.env
        self.config = config
        self.network = network
        self.nodes = nodes
        self.placement = placement
        self.hints = hints
        self.deadlines = deadlines
        self.hedges = hedges
        # Reads that skipped a replica: counted to take the other
        # replicas in turn, and how many of them had to hedge.
        self._partial_reads = 0
        self.hedged_reads = 0
        # What asking another replica adds to its stamped free-at: the
        # request's and the reply's mean link delays.
        self._round_trip = 2 * network.replica_link.mean

    # -- scatter primitives ----------------------------------------------------

    def _collect(self, nodes, request,
                 into: Optional[ResponseCollector] = None
                 ) -> ResponseCollector:
        """Send ``request`` to each of ``nodes``; one collector for the
        replies (``into``, when they join a round already under way),
        its timeout kept by the cluster's deadline queue."""
        rpc = self.network.rpc
        src_id = self.node.node_id
        if into is None:
            collector = ResponseCollector(self.env, len(nodes))
        else:
            collector = into
            into.expect(len(nodes))
        for node in nodes:
            rpc(src_id, node, collector, request)
        if into is None and nodes:
            self.deadlines.watch(collector)
        return collector

    def _scatter(self, table: str, key: Hashable, request, required: int,
                 kind: str, hint: Optional[WriteRequest] = None,
                 every_replica: bool = True) -> ResponseCollector:
        """Send ``request`` to the alive replicas of ``key``: all of
        them, or with ``every_replica`` false (a quorum read) to the
        ``required`` of them that can start serving it soonest — this
        node when its CPU falls free, another replica when the free-at
        it stamped on its last reply here falls due, plus a round trip,
        ties kept in the fixed order (this node first if it is one, the
        others in turn) — and to the rest only if those have not all
        answered after :data:`READ_HEDGE`.

        One pass finds the alive replicas, the down ones (a write parks
        ``hint`` for them) and, for a read, each alive one's ``(ready,
        position, replica)``: one sort of those is the rank.  Raises
        :class:`UnavailableError` if fewer than ``required`` are alive.
        """
        replicas = self.placement.replicas_for(table, key)
        n = len(replicas)
        if not 1 <= required <= n:
            validate_quorum(required, n, kind=kind)  # raises
        node = self.node
        src_id = node.node_id
        now = self.env._now
        stamps = self.network.reply_stamps
        round_trip = self._round_trip
        # The alive replicas (a read's as entries), the down ones, and
        # how many of the alive are not this node.
        alive, down, peers = [], [], 0
        for replica in replicas:
            if replica.is_down:
                down.append(replica)
            elif every_replica:
                alive.append(replica)
            elif replica is node:
                free = node.cpu.free_at
                alive.append([free if free > now else now, -1, replica])
            else:
                free = stamps.get((src_id, replica.node_id), now)
                alive.append([(free if free > now else now) + round_trip,
                              peers, replica])
                peers += 1
        if len(alive) < required:
            raise UnavailableError(
                f"only {len(alive)}/{n} replicas alive, "
                f"need {required}", required=required, received=len(alive))
        if hint is not None:
            for replica in down:
                self.hints.add(src_id, replica.node_id, hint)
        if every_replica:
            return self._collect(alive, request)
        if len(alive) == required:
            return self._collect([entry[2] for entry in alive], request)
        # The others are taken in turn: the one whose turn it is first
        # among equals, those before it last.
        self._partial_reads += 1
        turn = self._partial_reads % peers
        for entry in alive:
            if 0 <= entry[1] < turn:
                entry[1] += peers
        alive.sort()
        collector = self._collect([entry[2] for entry in alive[:required]],
                                  request)
        self.hedges.watch(collector,
                          _Hedge(self, collector, alive, required, request))
        return collector

    def scatter_write(self, table: str, key: Hashable,
                      cells: Dict[ColumnName, Cell],
                      required: int) -> ResponseCollector:
        """Broadcast a write to all replicas of ``key``.

        Down replicas get hints instead of messages; raises
        :class:`UnavailableError` if fewer than ``required`` replicas are
        alive.
        """
        request = WriteRequest(table, key, dict(cells))
        return self._scatter(table, key, request, required, "W", hint=request)

    def scatter_read(self, table: str, key: Hashable,
                     columns: Tuple[ColumnName, ...], required: int,
                     every_replica: bool = False) -> ResponseCollector:
        """Send a column read to ``required`` alive replicas of ``key``
        (the rest on a hedge), or with ``every_replica`` — Algorithm 1,
        which wants each replica's version — to all of them."""
        return self._scatter(table, key,
                             ReadRequest(table, key, tuple(columns)),
                             required, "R", every_replica=every_replica)

    def scatter_read_row(self, table: str, key: Hashable,
                         required: int) -> ResponseCollector:
        """Send a whole-row read to ``required`` alive replicas of
        ``key`` (the rest on a hedge)."""
        return self._scatter(table, key, ReadRowRequest(table, key),
                             required, "R", every_replica=False)

    def scatter_get_then_put(self, table: str, key: Hashable,
                             cells: Dict[ColumnName, Cell],
                             read_columns: Tuple[ColumnName, ...],
                             required: int) -> ResponseCollector:
        """Broadcast the combined Get-then-Put of Algorithm 1 (optimized)."""
        request = GetThenPutRequest(table, key, dict(cells),
                                    tuple(read_columns))
        return self._scatter(table, key, request, required, "W",
                             hint=WriteRequest(table, key, request.cells))

    # -- high-level operations ---------------------------------------------------

    def put(self, table: str, key: Hashable, cells: Dict[ColumnName, Cell],
            w: int):
        """Quorum Put: returns once W replicas have acknowledged."""
        yield self.node.cpu.hold(self.config.service.coordinator)
        collector = self.scatter_write(table, key, cells, w)
        yield collector.wait(w)

    def get(self, table: str, key: Hashable,
            columns: Tuple[ColumnName, ...], r: int):
        """Quorum Get: merged per-column cells from the first R responses.

        At R = 1 the one response is the answer: its cells (a
        never-written column as :meth:`Cell.null`), with no merge and no
        read repair, whose diff against the one replica is empty.
        """
        yield self.node.cpu.hold(self.config.service.coordinator)
        collector = self.scatter_read(table, key, columns, r)
        responses = yield collector.wait(r)
        if r == 1:
            cells = responses[0].cells
            null = Cell.null()
            return {column: cells.get(column) or null for column in columns}
        merged = {column: merge_cells(response.cells.get(column)
                                      for response in responses)
                  for column in columns}
        self._maybe_read_repair(table, key, responses, merged)
        return merged

    def get_row(self, table: str, key: Hashable, r: int):
        """Quorum whole-row Get: merged cells of every column seen (at
        R = 1 the one response's, with no merge and no read repair)."""
        yield self.node.cpu.hold(self.config.service.coordinator)
        collector = self.scatter_read_row(table, key, r)
        responses = yield collector.wait(r)
        if r == 1:
            return responses[0].cells
        merged = merge_rows([response.cells for response in responses])
        self._maybe_read_repair(table, key, responses, merged)
        return merged

    def index_read(self, table: str, column: ColumnName, value,
                   columns: Tuple[ColumnName, ...]):
        """Secondary-index read: scatter to every node, merge fragments.

        This is the expensive path the paper measures: the lookup must be
        broadcast to all servers because fragments are partitioned by
        primary key, and the coordinator must wait for all of them.
        """
        yield self.node.cpu.hold(self.config.service.coordinator)
        nodes = [node for node in self.nodes if not node.is_down]
        if not nodes:
            raise UnavailableError("no nodes alive for index read")
        collector = self._collect(
            nodes, IndexScanRequest(table, column, value, tuple(columns)))
        responses = yield collector.wait(len(nodes))
        # Per key, every copy a fragment returned: replicas may disagree.
        copies: Dict[Hashable, List[Dict[ColumnName, Optional[Cell]]]] = {}
        for response in responses:
            for key, cells in response.matches.items():
                copies.setdefault(key, []).append(cells)
        # Drop keys whose indexed column no longer matches after merging
        # (a fragment can be momentarily stale relative to a peer replica).
        result: Dict[Hashable, Dict[ColumnName, Cell]] = {}
        for key, rows in copies.items():
            cells = merge_rows(rows)
            indexed_cell = cells.get(column)
            if column in columns and indexed_cell is not None:
                if indexed_cell.is_null or indexed_cell.value != value:
                    continue
            result[key] = cells
        return result

    # -- helpers -------------------------------------------------------------------

    def _maybe_read_repair(self, table: str, key: Hashable, responses,
                           merged: Dict[ColumnName, Cell]) -> None:
        """Push merged winners to the responding replicas that were
        missing them or held them stale (asynchronously: nobody waits)."""
        repair_cells: Dict[ColumnName, Cell] = {}
        for response in responses:
            repair_cells.update(stale_cells(merged, response.cells))
        if not repair_cells:
            return
        try:
            self.scatter_write(table, key, repair_cells, required=1)
        except UnavailableError:  # pragma: no cover - nothing alive to repair
            pass
