"""Scenario workloads: fault-tolerant clients that keep exact books.

A scenario workload is a simulation process that drives Gets and Puts
against the cluster while adversaries rage, and records *exactly* what
it managed to apply so the invariant suite can build the paper's
reference oracle afterwards.  The bookkeeping rules:

- An **acked** Put (the coordinator returned under quorum ``w``) is
  recorded as applied: LWW guarantees it will win or lose purely by
  timestamp, so the oracle must see it.
- A Put that never acked within the retry budget is **ambiguous**: it
  may have reached some replicas before the failure.  At quiescence
  :meth:`BaseWorkload.resolve_ambiguous` scans converged node storage
  for the Put's (unique) timestamp — present anywhere means it will
  spread by LWW and counts as applied; present nowhere means it
  vanished with the failure and is dropped.
- Session reads record :class:`SessionObservation`\\ s for the
  read-your-own-propagations invariant.

Every client op retries through :func:`retrying`, the one retry loop:
attempt ``i`` runs on ``clients[(first + i) % len(clients)]`` and each
:data:`RETRIABLE` failure costs a :data:`RETRY_BACKOFF` wait.  A Put
keeps its timestamp on every attempt (retrying a Put is idempotent
under LWW).  Ordinary clients pass the pool of one client per
coordinator, so their retries rotate coordinators; a session passes
its one pinned client, so it waits for its coordinator instead — the
paper's sessions are bound to one server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Tuple

from repro.errors import NodeDownError, QuorumError
from repro.freshness import BoundedReadObservation
from repro.views.model import BaseUpdate

__all__ = [
    "AmbiguousOp",
    "SessionObservation",
    "BaseWorkload",
    "ScenarioWorkload",
    "retrying",
]

# Exceptions a client op rides out: its coordinator is down or a quorum
# could not be assembled.
RETRIABLE = (NodeDownError, QuorumError)
# Sim-ms a client waits after a retriable failure before its next attempt.
RETRY_BACKOFF = 5.0

# ``ScenarioWorkload``'s key space: base rows ``k0``..``k5``, view-key
# values ``g0``..``g3``.  Few enough that operations collide on rows
# and chains, which is what the adversaries need to bite.
BASE_KEYS = 6
VIEW_KEYS = 4


def retrying(env, clients: List, first: int, op: Callable, attempts: int,
             retry_on=RETRIABLE):
    """Run the client op ``op(client)`` — a generator — until it
    returns, at most ``attempts`` times; returns ``(True, result)``, or
    ``(False, None)`` once every attempt failed.

    Attempt ``i`` runs on ``clients[(first + i) % len(clients)]``: a
    pool rotates coordinators, a one-client list retries the same one.
    Each failure in ``retry_on`` is followed by a :data:`RETRY_BACKOFF`
    wait; any other error propagates.
    """
    for attempt in range(attempts):
        client = clients[(first + attempt) % len(clients)]
        try:
            result = yield from op(client)
        except retry_on:
            yield env.timeout(RETRY_BACKOFF)
            continue
        return True, result
    return False, None


@dataclass
class AmbiguousOp:
    """A Put that never acked; resolved against converged state."""

    table: str
    key: Hashable
    cells: Dict[str, Any]
    timestamp: int


@dataclass
class SessionObservation:
    """One session view-read taken right after a session Put.

    ``rows`` holds, per returned live row, the base key and the
    ``(value, timestamp)`` pair of each requested column.
    """

    client_id: int
    base_key: Hashable
    view_key: Any
    put_ts: int
    at: float
    rows: List[Tuple[Hashable, Dict[str, Tuple[Any, int]]]] = field(
        default_factory=list)


class BaseWorkload:
    """Bookkeeping shared by the random and schedule-driven workloads."""

    creates_view = False  # True: it creates the view mid-history itself
    W = 2  # write quorum of every Put
    R = 2  # read quorum of every view read
    MAX_ATTEMPTS = 40  # attempts per op before it is given up

    def __init__(self):
        self.applied: List[BaseUpdate] = []
        self.ambiguous: List[AmbiguousOp] = []
        self.observations: List[SessionObservation] = []
        self.bounded_observations: List[BoundedReadObservation] = []
        self.acked_ops = 0
        self.unacked_ops = 0
        self.reads_done = 0
        self.reads_failed = 0
        self.bounded_reads_done = 0
        self.bounded_reads_failed = 0
        self.ambiguous_applied = 0
        self.ambiguous_dropped = 0

    def run(self, scenario):
        """The workload simulation process (override)."""
        raise NotImplementedError
        yield  # pragma: no cover

    def _put(self, scenario, clients, first, key, cells, ts):
        """A Put retried with its one timestamp, booked as acked or
        ambiguous; returns whether it acked."""
        env = scenario.cluster.env
        table = scenario.view.base_table
        acked, _ = yield from retrying(
            env, clients, first,
            lambda client: client.put(table, key, cells, self.W,
                                      timestamp=ts),
            self.MAX_ATTEMPTS)
        if acked:
            self.record_acked(key, cells, ts, at=env.now)
        else:
            self.record_ambiguous(table, key, cells, ts)
        return acked

    # -- bookkeeping ---------------------------------------------------------

    def record_acked(self, key: Hashable, cells: Dict[str, Any],
                     ts: int, at: float = 0.0) -> None:
        """An acked Put: every cell becomes an oracle update.

        ``at`` is the simulated ack time — the clock bounded-staleness
        promises are audited against.
        """
        self.acked_ops += 1
        for column, value in cells.items():
            self.applied.append(BaseUpdate(key, column, value, ts,
                                           acked_at=at))

    def record_ambiguous(self, table: str, key: Hashable,
                         cells: Dict[str, Any], ts: int) -> None:
        """A Put that exhausted its retry budget without an ack."""
        self.unacked_ops += 1
        self.ambiguous.append(AmbiguousOp(table, key, dict(cells), ts))

    def resolve_ambiguous(self, cluster) -> None:
        """Settle every ambiguous Put against converged node storage.

        Must run after quiescence (all nodes up, hints replayed,
        replicas repaired): a Put's cells all share one unique
        timestamp, so finding any cell with that timestamp on any node
        proves the write landed and will spread by LWW.
        """
        for op in self.ambiguous:
            if self._landed(cluster, op):
                self.ambiguous_applied += 1
                # Never acknowledged: no client was ever promised this
                # write by any time, so the freshness audit must not
                # require it (it still excuses rows it moved).
                for column, value in op.cells.items():
                    self.applied.append(
                        BaseUpdate(op.key, column, value, op.timestamp,
                                   acked_at=float("inf")))
            else:
                self.ambiguous_dropped += 1
        self.ambiguous = []

    @staticmethod
    def _landed(cluster, op: AmbiguousOp) -> bool:
        for node in cluster.nodes:
            if not node.engine.has_table(op.table):
                continue
            cells = node.engine.read_row(op.table, op.key)
            for column in op.cells:
                cell = cells.get(column)
                if cell is not None and cell.timestamp == op.timestamp:
                    return True
        return False

    def key_update_timestamps(self, key_column: str
                              ) -> Dict[Hashable, List[int]]:
        """Per base key, every applied timestamp of the view-key column.

        The session invariant uses this to excuse a read that missed a
        session Put because a concurrent higher-timestamp write moved
        the row.
        """
        per_key: Dict[Hashable, List[int]] = {}
        for update in self.applied:
            if update.column == key_column:
                per_key.setdefault(update.key, []).append(update.timestamp)
        return per_key


class ScenarioWorkload(BaseWorkload):
    """The default randomized mixed workload over the scenario schema.

    ``ops`` operations over :data:`BASE_KEYS` base rows and
    :data:`VIEW_KEYS` view-key values, mixing full Puts (view key +
    materialized column), data-only Puts (UpdateData propagation),
    view-key deletes (moves to the NULL anchor), and session Put+read
    pairs.  Inter-arrival gaps
    are exponential with mean ``mean_gap``, divided live by the
    scenario's ``arrival_scale`` so a burst adversary can floor them.
    All randomness comes from the cluster's ``scenario-workload``
    stream: one seed fixes the whole history.
    """

    # Staleness bounds (sim-ms) bounded reads draw from: tight enough to
    # force escalations under adversaries, loose enough to also see
    # bound hits.
    BOUNDS = (5.0, 25.0, 100.0, 400.0)
    # Share of operations that are a session Put+read pair.
    SESSION_FRACTION = 0.25

    def __init__(self, *, ops: int = 120, mean_gap: float = 3.0,
                 bounded_read_fraction: float = 0.15, key_chooser=None):
        super().__init__()
        if ops < 1:
            raise ValueError("ops must be >= 1")
        self.ops = ops
        # Optional KeyChooser (e.g. ZipfianKeys) replacing the uniform
        # base-key draw — the skew scenarios hammer a hot head this way.
        self.key_chooser = key_chooser
        self.mean_gap = mean_gap
        self.bounded_read_fraction = bounded_read_fraction

    def run(self, scenario):
        cluster = scenario.cluster
        env = cluster.env
        rng = cluster.streams.stream("scenario-workload")
        nodes = cluster.config.nodes
        key_column = scenario.view.view_key_column
        data_column = scenario.view.materialized_columns[0]

        # One client per coordinator, plus one pinned session client
        # (sessions are bound to a server, paper Section V).
        pool = [cluster.client(coordinator_id=cid) for cid in range(nodes)]
        session = [cluster.client(coordinator_id=0)]
        session[0].begin_session()
        scenario.client_ids.update(h.client_id for h in pool + session)

        for i in range(self.ops):
            gap = rng.expovariate(1.0 / self.mean_gap)
            yield env.timeout(gap / max(scenario.arrival_scale, 1e-9))

            if self.key_chooser is not None:
                key = f"k{self.key_chooser.choose(rng)}"
            else:
                key = f"k{rng.randrange(BASE_KEYS)}"
            if rng.random() < self.SESSION_FRACTION:
                yield from self._session_op(scenario, session, key, i, rng)
                continue
            if rng.random() < self.bounded_read_fraction:
                yield from self._bounded_read(scenario, pool, rng)
                continue

            roll = rng.random()
            if roll < 0.15:
                cells = {key_column: None}
            elif roll < 0.45:
                cells = {data_column: f"m{i}"}
            else:
                cells = {key_column: f"g{rng.randrange(VIEW_KEYS)}",
                         data_column: f"m{i}"}
            first = rng.randrange(nodes)
            ts = pool[first].oracle.next()
            yield from self._put(scenario, pool, first, key, cells, ts)

    # -- op drivers ----------------------------------------------------------

    def _bounded_read(self, scenario, pool, rng):
        """A bounded-staleness view read, recorded for the audit."""
        env = scenario.cluster.env
        view_key = f"g{rng.randrange(VIEW_KEYS)}"
        bound = self.BOUNDS[rng.randrange(len(self.BOUNDS))]
        columns = scenario.view.materialized_columns
        read, fresh = yield from retrying(
            env, pool, rng.randrange(len(pool)),
            lambda client: client.get_view_fresh(
                scenario.view.name, view_key, columns, self.R,
                max_staleness_ms=bound),
            self.MAX_ATTEMPTS)
        if not read:
            self.bounded_reads_failed += 1
            return
        self.bounded_reads_done += 1
        self.bounded_observations.append(BoundedReadObservation(
            view_key=view_key, bound_ms=bound,
            as_of=fresh.certificate.as_of,
            rows=tuple((res.base_key, dict(res.values))
                       for res in fresh.results),
            escalated=fresh.escalated,
            issued_at=env.now))

    def _session_op(self, scenario, session, key, i, rng):
        """A session Put followed by a session view read of its row, both
        on the session's one pinned client."""
        env = scenario.cluster.env
        view_key = f"g{rng.randrange(VIEW_KEYS)}"
        cells = {scenario.view.view_key_column: view_key,
                 scenario.view.materialized_columns[0]: f"s{i}"}
        ts = session[0].oracle.next()
        acked = yield from self._put(scenario, session, 0, key, cells, ts)
        if not acked:
            return
        read, results = yield from retrying(
            env, session, 0,
            lambda client: client.get_view(
                scenario.view.name, view_key,
                scenario.view.materialized_columns, self.R),
            self.MAX_ATTEMPTS)
        if not read:
            self.reads_failed += 1
            return
        self.reads_done += 1
        self.observations.append(SessionObservation(
            client_id=session[0].client_id, base_key=key,
            view_key=view_key, put_ts=ts, at=env.now,
            rows=[(res.base_key, dict(res.values)) for res in results]))
