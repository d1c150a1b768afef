"""The cluster façade: builds nodes, ring, network; entry point for clients.

A :class:`Cluster` wires together the simulation environment, the token
ring, the storage nodes, the network, and the eventual-delivery services.
Applications obtain :class:`ClientHandle`s (see ``repro.cluster.client``)
to issue Get/Put operations, or a :class:`SyncClient` for
non-simulation-aware code such as the examples.
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cluster.antientropy import repair_row, repair_table
from repro.cluster.config import ClusterConfig
from repro.cluster.coordinator import (
    READ_HEDGE,
    Coordinator,
    QuorumDeadlines,
)
from repro.cluster.hints import HintService
from repro.cluster.network import Network
from repro.cluster.node import StorageNode
from repro.cluster.tracing import Tracer
from repro.common.hashing import TokenRing
from repro.common.records import Cell, ColumnName, merge_rows
from repro.errors import ClusterError
from repro.index import IndexSchema
from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams

__all__ = ["Cluster"]

# Upper bound on memoized ring placements; cleared wholesale when full.
_PLACEMENT_CACHE_MAX = 1 << 17


class Placement:
    """Where rows live: the N replica nodes of each ``table[key]``.

    Placement depends only on the key (paper Section II); the table
    name parameterizes the salt so base tables and views spread
    independently.  It is memoized: ring membership and replication
    factor are fixed for the life of the cluster (crashes toggle
    ``is_down``, they do not move tokens), and the SHA-256 ring hash is
    hot on every read and write.  The cache is cleared wholesale if it
    ever grows past ``_PLACEMENT_CACHE_MAX`` keys.
    """

    def __init__(self, nodes: List[StorageNode], config: ClusterConfig):
        self.ring = TokenRing([node.node_id for node in nodes])
        self.nodes = nodes
        self.replication_factor = config.replication_factor
        self._cache: Dict[Tuple[str, Hashable], Tuple[StorageNode, ...]] = {}

    def replicas_for(self, table: str, key: Hashable) -> Sequence[StorageNode]:
        """The N replica nodes holding ``table[key]``."""
        cache = self._cache
        replicas = cache.get((table, key))
        if replicas is None:
            ids = self.ring.preference_list((table, key),
                                            self.replication_factor)
            replicas = tuple(self.nodes[node_id] for node_id in ids)
            if len(cache) >= _PLACEMENT_CACHE_MAX:
                cache.clear()
            cache[(table, key)] = replicas
        return replicas


class Cluster:
    """A simulated multi-master, eventually consistent record store: a
    tree of parts (each handed the ones it uses, none the cluster), so
    it is freed by reference counting when dropped (after :meth:`close`
    if it has not drained)."""

    def __init__(self, config: Optional[ClusterConfig] = None,
                 env: Optional[Environment] = None):
        self.config = config or ClusterConfig()
        self.env = env or Environment()
        self.streams = RandomStreams(self.config.seed)
        self.network = Network(
            self.env,
            client_link=self.config.client_link,
            replica_link=self.config.replica_link,
            rng=self.streams.stream("network"),
        )
        self.index_schema = IndexSchema()
        self.nodes: List[StorageNode] = [
            StorageNode(self.env, node_id, self.config, self.index_schema)
            for node_id in range(self.config.nodes)
        ]
        self.placement = Placement(self.nodes, self.config)
        # One deadline queue for every quorum round of the cluster, and
        # one for the hedge of every read that skipped a replica.
        self.quorum_deadlines = QuorumDeadlines(self.env)
        self.read_hedges = QuorumDeadlines(self.env, READ_HEDGE)
        self.hints = HintService(self.env, self.nodes, self.network,
                                 self.quorum_deadlines)
        self.coordinators = [
            Coordinator(node, self.config, self.network, self.nodes,
                        self.placement, self.hints, self.quorum_deadlines,
                        self.read_hedges)
            for node in self.nodes]
        self._next_client_id = 0
        self._next_coordinator = 0
        # Installed lazily by create_view() (keeps cluster importable
        # without the views package and avoids an import cycle).
        self.view_manager = None
        # Structured tracing, off until enable_tracing().
        self.tracer = Tracer(self.env, enabled=False)
        # Per-client wall-clock offsets (ms); consulted live by every
        # client's timestamp oracle (see client_clock()).
        self._clock_skews: Dict[int, float] = {}

    def close(self) -> None:
        """Stop an undrained simulation (``Environment.close``) and its
        pending read hedges, so that it is freed once dropped."""
        self.env.close()
        self.read_hedges.clear()

    # -- topology ------------------------------------------------------------

    def node(self, node_id: int) -> StorageNode:
        """The node with the given id, one of ``0 .. nodes - 1`` (a
        negative id is no node: ``-1`` is the network's client end)."""
        if not 0 <= node_id < len(self.nodes):
            raise ClusterError(f"no node {node_id}")
        return self.nodes[node_id]

    def coordinator(self, node_id: int) -> Coordinator:
        """The coordinator role of node ``node_id``."""
        self.node(node_id)
        return self.coordinators[node_id]

    def replicas_for(self, table: str, key: Hashable) -> Sequence[StorageNode]:
        """The N replica nodes holding ``table[key]`` (:class:`Placement`)."""
        return self.placement.replicas_for(table, key)

    # -- introspection ---------------------------------------------------------

    def table_keys(self, table: str) -> Set[Hashable]:
        """Every key of ``table`` some alive node stores locally.

        Operator tooling, not protocol: the key universe of a full-table
        sweep (anti-entropy, the scrubber's scanner and its load of a
        new view).  A down node's keys are picked up by a later sweep.
        """
        keys: Set[Hashable] = set()
        for node in self.nodes:
            if not node.is_down and node.engine.has_table(table):
                keys.update(node.engine.keys(table))
        return keys

    def converged_rows(self, table: str,
                       keys: Optional[Iterable[Hashable]] = None
                       ) -> Dict[Hashable, Dict[ColumnName, Cell]]:
        """The state ``table`` converges to: every node's local copy of
        each row (down nodes included), LWW-merged.

        Reads storage engines directly and costs no simulated time — what
        the invariant checkers, digests and the scrubber's detector judge
        against.  ``keys`` restricts the sweep to rows the caller already
        knows it wants; a row no node stores is absent from the result.
        """
        wanted = None if keys is None else list(keys)
        copies: Dict[Hashable, List[Dict[ColumnName, Cell]]] = {}
        for node in self.nodes:
            engine = node.engine
            if not engine.has_table(table):
                continue
            for key in (engine.keys(table) if wanted is None else wanted):
                cells = engine.read_row(table, key)
                if cells:
                    copies.setdefault(key, []).append(cells)
        return {key: merge_rows(rows) for key, rows in copies.items()}

    # -- schema ----------------------------------------------------------------

    def create_table(self, name: str) -> None:
        """Create ``name`` on every node."""
        for node in self.nodes:
            node.create_table(name)

    def has_table(self, name: str) -> bool:
        """True if ``name`` exists (checked on node 0)."""
        return self.nodes[0].engine.has_table(name)

    def create_index(self, table: str, column: ColumnName) -> None:
        """Declare a native secondary index on ``table.column``.

        Every node builds a local fragment over its locally stored rows;
        maintenance from then on is synchronous with local writes.
        """
        if not self.has_table(table):
            raise ClusterError(f"cannot index unknown table {table!r}")
        self.index_schema.add(table, column)
        for node in self.nodes:
            node.register_index(table, column)

    def create_view(self, definition) -> None:
        """Register a materialized view (see :mod:`repro.views`).

        Creates the view's backing table and installs the
        :class:`~repro.views.manager.ViewManager` on first use.
        """
        self.views().register(definition)

    def create_join_view(self, definition) -> None:
        """Register an equi-join view (see :mod:`repro.views.joins`)."""
        manager = self.views()
        manager.joins.register(manager, definition)

    def views(self):
        """The :class:`~repro.views.manager.ViewManager`, installed on
        first use."""
        from repro.views.manager import ViewManager  # late: avoids cycle

        if self.view_manager is None:
            self.view_manager = ViewManager(self)
        return self.view_manager

    def backfill(self, view_name: str):
        """Load a view as it is created over a populated table, safe under
        writes; a process (``repair.scheduler.load_view``).  The view is
        in ``maintainer.backfilled`` from the start: a chain's first job
        writes the whole row (``views.maintenance``, *Whole rows*)."""
        from repro.repair.scheduler import load_view  # late: avoids cycle

        view = self.view_manager.view(view_name)
        self.view_manager.maintainer.backfilled.add(view.name)
        return (yield from load_view(self, view))

    # -- clients ------------------------------------------------------------------

    def client(self, coordinator_id: Optional[int] = None):
        """A new :class:`ClientHandle` (round-robin coordinator by default)."""
        from repro.cluster.client import ClientHandle  # late: avoids cycle

        if coordinator_id is None:
            coordinator_id = self._next_coordinator % len(self.nodes)
            self._next_coordinator += 1
        self.node(coordinator_id)
        client_id = self._next_client_id
        self._next_client_id += 1
        return ClientHandle(self, client_id, coordinator_id)

    def sync_client(self, coordinator_id: Optional[int] = None):
        """A blocking façade over :meth:`client` for non-simulation code."""
        from repro.cluster.client import SyncClient  # late: avoids cycle

        return SyncClient(self.client(coordinator_id))

    # -- client clocks -------------------------------------------------------

    def client_clock(self, client_id: int):
        """The wall-clock function for ``client_id``'s timestamp oracle.

        The paper's system model orders updates by *client-supplied*
        timestamps, which in practice come from imperfectly synchronized
        client clocks.  Each client's clock is the simulated time plus a
        per-client offset (default 0), looked up live so a clock-skew
        adversary can drift a client mid-run.  Clamped at zero: a
        skewed clock never runs before the epoch.
        """
        env, skews = self.env, self._clock_skews

        def now() -> float:
            return max(0.0, env._now + skews.get(client_id, 0.0))

        return now

    def set_clock_skew(self, client_id: int, offset_ms: float) -> None:
        """Skew ``client_id``'s wall clock by ``offset_ms`` (may be < 0)."""
        if offset_ms == 0.0:
            self._clock_skews.pop(client_id, None)
        else:
            self._clock_skews[client_id] = offset_ms

    def clear_clock_skews(self) -> None:
        """Restore every client clock to simulated time."""
        self._clock_skews.clear()

    def clock_skew_of(self, client_id: int) -> float:
        """The current clock offset of ``client_id`` (0 when unskewed)."""
        return self._clock_skews.get(client_id, 0.0)

    # -- failure injection -----------------------------------------------------------

    def fail_node(self, node_id: int) -> None:
        """Take ``node_id`` offline; its volatile maintenance state
        (the live rows it held) is gone when it returns."""
        self.node(node_id).mark_down()
        if self.view_manager is not None:
            self.view_manager.maintainer.forget_node(node_id)

    def recover_node(self, node_id: int) -> None:
        """Bring ``node_id`` back online and wake hint replay."""
        self.node(node_id).mark_up()
        self.hints.notify_recovery()

    def slow_node(self, node_id: int, cpu_factor: float = 1.0,
                  link_factor: float = 1.0) -> None:
        """Gray-fail ``node_id``: inflate its CPU and/or link latency.

        The node stays up and keeps answering — late.  Factors must be
        >= 1; ``restore_node_speed`` undoes both.
        """
        node = self.node(node_id)
        node.set_cpu_slowdown(cpu_factor)
        if link_factor != 1.0:
            self.network.set_slowdown(node_id, link_factor)
        else:
            self.network.clear_slowdown(node_id)

    def restore_node_speed(self, node_id: int) -> None:
        """Undo :meth:`slow_node` for ``node_id``."""
        self.node(node_id).set_cpu_slowdown(1.0)
        self.network.clear_slowdown(node_id)

    def partition(self, a: int, b: int) -> None:
        """Block traffic between nodes ``a`` and ``b``."""
        self.network.partition(a, b)

    def heal_partition(self, a: int, b: int) -> None:
        """Unblock traffic between nodes ``a`` and ``b``."""
        self.network.heal(a, b)

    # -- repair -------------------------------------------------------------------------

    def repair_row(self, table: str, key: Hashable):
        """Anti-entropy over one row; returns the process."""
        return self.env.process(repair_row(self, table, key))

    def repair_table(self, table: str):
        """Anti-entropy over a whole table; returns the process."""
        return self.env.process(repair_table(self, table))

    def start_scrubber(self, view_names=None, **overrides):
        """Start a background view scrubber (see :mod:`repro.repair`).

        The scrubber periodically compares each view's live rows against
        the base table and repairs confirmed divergence by re-driving
        rows through normal propagation — the self-healing complement to
        replica anti-entropy, which never compares a base table against
        its views.  ``view_names`` defaults to every registered view;
        keyword overrides (``interval``, ``row_budget``, ``rate_limit``)
        are :class:`~repro.repair.ViewScrubber`'s.
        """
        from repro.repair import ViewScrubber  # late: avoids cycle

        return ViewScrubber(self, view_names, **overrides)

    # -- tracing ----------------------------------------------------------------------------

    def enable_tracing(self, capacity: int = 10_000):
        """Switch on (or return the running) structured tracer."""
        if not self.tracer.enabled:
            self.tracer.enable(capacity)
        return self.tracer

    def trace(self, category: str, message: str, **fields) -> None:
        """Emit a trace event if tracing is enabled; disabled, it still
        makes the ``Tracer.emit`` call, kwargs dict and all."""
        self.tracer.emit(category, message, **fields)

    # -- running ---------------------------------------------------------------------------

    def run(self, until=None):
        """Advance the simulation (delegates to the environment)."""
        return self.env.run(until=until)

    def run_until_idle(self) -> None:
        """Run until no events remain (in-flight work fully drains).

        Only meaningful when no perpetual background service is running
        (a ``ViewScrubber``, a ``StaleRowCollector``, a started
        ``repro.scenarios`` adversary): those reschedule themselves
        forever, so the event queue never empties — use
        ``run(until=...)`` around them, or stop the service first.
        """
        self.env.run()
