"""The view scrubber: a background detect-and-repair loop per cluster.

Modelled on the other background service (``StaleRowCollector``): a
simulation process wakes every ``interval`` ms and compares each target
view's canonical expected and actual rows.  It then verifies rows with
quorum reads, in one loop over two sources: the rows of the dirty hash
buckets, whose confirmed divergences it repairs through the ordinary
propagation machinery, and the chains holding freshness wounds in clean
buckets, which it only verifies (see :meth:`ViewScrubber._scrub_view`).
Settable (keyword arguments of :class:`ViewScrubber`):

``interval``
    Base delay between rounds.
``row_budget``
    Maximum rows verified per round, shared across views; the
    token-range scanner's persistent cursor resumes next round.
``rate_limit``
    Minimum delay between two row verifications inside a round.

The bucket depth and the slowdown while a node is down are the class
constants :attr:`ViewScrubber.range_depth` and
:attr:`ViewScrubber.degraded_backoff`; the first alive node coordinates.

Propagation lag is not divergence, so a row is judged only under one
rule, per chain: its epoch (``ViewManager.chain_epoch``) is not None at
the instant the rows are compared — no base Put is between its first
replica write and its outbox append, and no started record is awake on
it — and is the same when the row's verify returns.  A record asleep in
a retry backoff does not hold the chain: its predecessor may have been
lost to a crash, and the row it waits for is the one the repair writes.
If it wakes and runs a round mid-verify, its turn moves the epoch.
Every other chain of the view is judged meanwhile, so the scrubber runs
under sustained writes.

The same row loop, over every row of a base table, loads a view created
over a populated one (:func:`load_view`).

``stop()`` ends the process.  All activity is counted in
:class:`~repro.repair.metrics.ScrubMetrics` and traced under the
``scrub`` category.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import PropagationError, QuorumError
from repro.repair.detector import dirty_buckets, verify_row
from repro.repair.metrics import ScrubMetrics
from repro.repair.scanner import TokenRangeScanner, bucket_of
from repro.views.drive import repropagate_row

__all__ = ["ViewScrubber", "load_view"]

# A scrubber's default pace, and the load's (load_view): the delay
# between rounds and between two row verifications in one.
INTERVAL = 50.0
RATE_LIMIT = 0.1


class ViewScrubber:
    """Periodic base↔view divergence detection and repair."""

    # Bucket depth: ``2**range_depth`` hash buckets per view.
    range_depth = 4
    # Multiplier applied to ``interval`` while any node is down: a
    # degraded cluster needs its quorum capacity for foreground traffic,
    # and repairs issued during the outage would miss the down replicas
    # anyway.
    degraded_backoff = 4.0

    def __init__(self, cluster, view_names: Optional[List[str]] = None, *,
                 interval: float = INTERVAL,
                 row_budget: int = 64,
                 rate_limit: float = RATE_LIMIT):
        self.cluster = cluster
        self.view_names = list(view_names) if view_names is not None else None
        self.interval = interval
        self.row_budget = row_budget
        self.rate_limit = rate_limit
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.row_budget < 1:
            raise ValueError("row_budget must be >= 1")
        if self.rate_limit < 0:
            raise ValueError("rate_limit must be non-negative")
        if self.view_names is not None:
            manager = cluster.view_manager
            known = set(manager.view_names()) if manager is not None else set()
            unknown = [name for name in self.view_names if name not in known]
            if unknown:
                raise ValueError(
                    "unknown view(s): %s" % ", ".join(sorted(unknown)))
        self.metrics = ScrubMetrics()
        self._scanners = {}
        self._stopped = False
        self._process = cluster.env.process(self._loop(),
                                            name="view-scrubber")

    def stop(self) -> None:
        """Stop scrubbing (takes effect at the next wakeup)."""
        self._stopped = True

    # -- the loop ----------------------------------------------------------

    def _loop(self):
        env = self.cluster.env
        while not self._stopped:
            yield env.timeout(_pause(self.cluster, self.metrics,
                                     self.interval))
            if self._stopped:
                return
            yield from self.run_round()

    def _target_views(self):
        manager = self.cluster.view_manager
        if manager is None:
            return []
        names = (self.view_names if self.view_names is not None
                 else manager.view_names())
        return [manager.view(name) for name in names]

    def run_round(self):
        """One scrub round over every target view, a generator the loop
        runs in its own process (``yield from``).

        Also runnable on its own (``env.process(s.run_round())``) for
        deterministic tests.
        """
        self.metrics.rounds += 1
        views = self._target_views()
        coordinator = _alive_coordinator(self.cluster)
        if not views or coordinator is None:
            self.metrics.skipped_rounds += 1
            return
        budget = self.row_budget
        clean = True
        for view in views:
            spent, view_clean = yield from self._scrub_view(
                view, coordinator, budget)
            budget -= spent
            clean = clean and view_clean
        if clean:
            self.metrics.note_clean_round(self.cluster.env.now)

    def _scrub_view(self, view, coordinator, budget: int):
        """Compare one view's rows, then judge rows in one loop.

        The rows come from two sources.  Every row of a dirty bucket is
        verified, and a confirmed divergence is repaired.  A wounded
        chain in a clean bucket is verified only: the comparison sees an
        all-replica merge, which cannot prove quorum-read visibility, so
        its freshness wound may clear only on a per-key ``verify_row``.
        A divergence there is sub-majority replication lag (a hint still
        pending), not chain damage, and re-driving the row would be
        wrong — ``repropagate_row`` reads base at majority and can see
        an *older* base state than the merge, resurrecting a dead live
        row — so the wound stays open until a later round finds the key
        quorum-clean.  Either kind is judged only under the chain rule
        (module docstring).

        Returns ``(rows_spent, clean)``: clean when no bucket was dirty
        and no wound survives the pass.
        """
        cluster = self.cluster
        env = cluster.env
        manager = cluster.view_manager
        tracker = manager.freshness
        # Comparing the two sides: one replica round trip (the detector
        # compares converged introspective state row by row; the
        # network cost of exchanging range digests is still charged).
        peer = (coordinator.node.node_id + 1) % cluster.config.nodes
        if peer != coordinator.node.node_id:
            yield env.timeout(cluster.network.one_way_delay(
                coordinator.node.node_id, peer) * 2)
        dirty, live = dirty_buckets(cluster, view, self.range_depth)
        self.metrics.ranges_compared += 1 << self.range_depth
        self.metrics.ranges_skipped_clean += (1 << self.range_depth) - len(dirty)
        rows = []  # (base key, repair on divergence)
        if dirty:
            scanner = self._scanners.get(view.name)
            if scanner is None:
                scanner = TokenRangeScanner(cluster, view.base_table,
                                            self.range_depth)
                self._scanners[view.name] = scanner
            plan = scanner.plan(dirty, budget, scanner.snapshot(live))
            cluster.trace("scrub", "scanning dirty ranges", view=view.name,
                          buckets=len(dirty), rows=len(plan.rows),
                          covered_all=plan.covered_all)
            rows = [(key, True) for _bucket, key in plan.rows]
        else:
            cluster.trace("scrub", "view clean", view=view.name)
        wounded = [(key, False) for key in tracker.wounded_keys(view.name)
                   if bucket_of(key, self.range_depth) not in dirty]
        rows += wounded[:budget - len(rows)]
        # Each chain's epoch at the instant of the comparison.
        rows = [(key, repair, manager.chain_epoch(view.name, key),
                 tuple(live.get(key, ()))) for key, repair in rows]
        scanned = self.metrics.rows_scanned
        settled = yield from _judge_rows(
            cluster, view, coordinator, self.metrics, self.rate_limit, rows)
        return self.metrics.rows_scanned - scanned, (
            settled is not None and not dirty
            and not tracker.wounded_keys(view.name))


def _alive_coordinator(cluster):
    return next((cluster.coordinator(node.node_id)
                 for node in cluster.nodes if not node.is_down), None)


def _pause(cluster, metrics: ScrubMetrics, interval: float) -> float:
    """``interval``, ``degraded_backoff`` times longer while a node is down."""
    if any(node.is_down for node in cluster.nodes):
        metrics.backoff_rounds += 1
        return interval * ViewScrubber.degraded_backoff
    return interval


def _judge_rows(cluster, view, coordinator, metrics: ScrubMetrics,
                rate_limit: float, rows):
    """The row loop, a process: verify each ``(key, repair, epoch,
    live_keys)`` of ``rows`` under the chain rule (module docstring),
    ``epoch`` taken when the row was compared, and repair a confirmed
    divergence if ``repair``.  Returns the keys verified clean or
    repaired, or None if no node is left to coordinate."""
    env = cluster.env
    manager = cluster.view_manager
    tracker = manager.freshness
    settled = set()
    for key, repair, epoch, live_keys in rows:
        if epoch is None:
            metrics.rows_skipped_in_flight += 1
            cluster.trace("scrub", "skipped: chain in flight",
                          view=view.name, key=key)
            continue
        if rate_limit > 0:
            yield env.timeout(rate_limit)
        if coordinator.node.is_down:
            # Crash-loop resilience: the scrub coordinator died
            # mid-round.  Re-elect a live node instead of burning the
            # rest of the round's budget on guaranteed RPC timeouts
            # (200 ms each against a dead coordinator).
            coordinator = _alive_coordinator(cluster)
            if coordinator is None:
                return None
            metrics.coordinator_switches += 1
            cluster.trace("scrub", "coordinator re-elected mid-round",
                          view=view.name,
                          coordinator=coordinator.node.node_id)
        metrics.rows_scanned += 1
        verify_started = env.now
        try:
            divergence = yield from verify_row(
                coordinator, view, key, manager.maintainer.quorum,
                live_keys)
        except QuorumError:
            metrics.rows_skipped_unavailable += 1
            continue
        if manager.chain_epoch(view.name, key) != epoch:
            metrics.rows_skipped_in_flight += 1
            cluster.trace("scrub", "skipped: chain moved mid-verify",
                          view=view.name, key=key)
            continue
        if divergence is None:
            # Quorum-level cleanliness evidence: an open wound observed
            # before this verify began can heal.
            tracker.note_verified_clean(view.name, key, verify_started)
            settled.add(key)
            continue
        tracker.note_divergence(divergence, verify_started)
        if not repair:
            cluster.trace("scrub", "wounded chain lagging quorum visibility",
                          view=view.name, key=key, kind=divergence.kind)
            continue
        metrics.divergences_found += 1
        metrics.note_divergence(env.now)
        cluster.trace("scrub", "divergence confirmed", view=view.name,
                      key=key, kind=divergence.kind)
        try:
            yield from repropagate_row(manager, coordinator, view, key,
                                       strays=divergence.strays)
        except (QuorumError, PropagationError):
            metrics.repair_failures += 1
            cluster.trace("scrub", "repair failed", view=view.name, key=key)
        else:
            metrics.repairs_applied += 1
            settled.add(key)
            cluster.trace("scrub", "repaired", view=view.name, key=key)
    return settled


def load_view(cluster, view):
    """``Cluster.backfill``: load ``view`` over its populated base
    table, a process returning its metrics.  The row loop runs over
    every base row present at the start, each row's epoch taken as the
    loop reaches it and with no stray check (a new view holds none),
    round after round until each row is verified clean or repaired.  A
    clean round never comes while writes continue; a row a Put reaches
    first enters the view whole by that Put's own propagation (the
    view is ``ViewMaintainer.backfilled``)."""
    metrics = ScrubMetrics()
    pending = sorted(cluster.table_keys(view.base_table), key=repr)
    while pending:
        metrics.rounds += 1
        coordinator = _alive_coordinator(cluster)
        if coordinator is None:
            metrics.skipped_rounds += 1
        else:
            settled = yield from _judge_rows(
                cluster, view, coordinator, metrics, RATE_LIMIT,
                ((key, True, cluster.view_manager.chain_epoch(view.name, key),
                  ()) for key in pending))
            pending = [key for key in pending if key not in (settled or ())]
        if pending:
            yield cluster.env.timeout(_pause(cluster, metrics, INTERVAL))
    cluster.trace("scrub", "view loaded", view=view.name,
                  rows=metrics.rows_scanned, repairs=metrics.repairs_applied)
    return metrics
