"""The view scrubber: a background detect-and-repair loop per cluster.

Modelled on the other background service (``StaleRowCollector``): a
simulation process wakes every ``interval`` ms, compares each target
view's canonical expected and actual rows, and for dirty hash ranges
verifies rows with quorum reads and repairs confirmed divergences
through the ordinary propagation machinery.  Knobs
(keyword arguments of :class:`ViewScrubber`):

``interval``
    Base delay between rounds.
``row_budget``
    Maximum rows verified per round, shared across views; the
    token-range scanner's persistent cursor resumes next round.
``range_depth``
    Bucket depth — ``2**depth`` hash buckets per view.
``rate_limit``
    Minimum delay between two row verifications inside a round.
``degraded_backoff``
    Multiplier applied to ``interval`` while any node is down: a
    degraded cluster needs its quorum capacity for foreground traffic,
    and repairs issued during the outage would miss the down replicas
    anyway.

``pause()``/``resume()`` gate rounds without killing the process (an
operator hook); ``stop()`` ends it.  All activity is counted in
:class:`~repro.repair.metrics.ScrubMetrics` and traced under the
``scrub`` category.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.errors import PropagationError, QuorumError
from repro.repair.detector import dirty_buckets, verify_row
from repro.repair.metrics import ScrubMetrics
from repro.repair.scanner import TokenRangeScanner
from repro.views.drive import repropagate_row

__all__ = ["ViewScrubber"]


def _chain_appends(manager, view_name: str) -> Dict[Hashable, int]:
    """Records ever appended per base key of ``view_name``, over every
    node's outbox: a key whose count moved between two instants had a
    record appended in between."""
    counts: Dict[Hashable, int] = {}
    for outbox in manager._outboxes.values():
        for (name, key), appended in outbox.chain_appends.items():
            if name == view_name:
                counts[key] = counts.get(key, 0) + appended
    return counts


class ViewScrubber:
    """Periodic base↔view divergence detection and repair."""

    def __init__(self, cluster, view_names: Optional[List[str]] = None, *,
                 interval: float = 50.0,
                 row_budget: int = 64,
                 range_depth: int = 4,
                 rate_limit: float = 0.1,
                 degraded_backoff: float = 4.0,
                 coordinator_id: int = 0):
        self.cluster = cluster
        self.view_names = list(view_names) if view_names is not None else None
        self.interval = interval
        self.row_budget = row_budget
        self.range_depth = range_depth
        self.rate_limit = rate_limit
        self.degraded_backoff = degraded_backoff
        self.coordinator_id = coordinator_id
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.row_budget < 1:
            raise ValueError("row_budget must be >= 1")
        if not 0 <= self.range_depth <= 20:
            raise ValueError("range_depth must be in [0, 20]")
        if self.rate_limit < 0:
            raise ValueError("rate_limit must be non-negative")
        if self.degraded_backoff < 1.0:
            raise ValueError("degraded_backoff must be >= 1")
        if self.view_names is not None:
            manager = cluster.view_manager
            known = set(manager.view_names()) if manager is not None else set()
            unknown = [name for name in self.view_names if name not in known]
            if unknown:
                raise ValueError(
                    "unknown view(s): %s" % ", ".join(sorted(unknown)))
        self.metrics = ScrubMetrics()
        self._scanners = {}
        self._paused = False
        self._stopped = False
        self._process = cluster.env.process(self._loop(),
                                            name="view-scrubber")

    # -- operator controls -------------------------------------------------

    def stop(self) -> None:
        """Stop scrubbing (takes effect at the next wakeup)."""
        self._stopped = True

    def pause(self) -> None:
        """Skip rounds until :meth:`resume` (the process keeps ticking)."""
        self._paused = True

    def resume(self) -> None:
        """Resume scrubbing after :meth:`pause`."""
        self._paused = False

    @property
    def paused(self) -> bool:
        """True while rounds are being skipped."""
        return self._paused

    # -- the loop ----------------------------------------------------------

    def _degraded(self) -> bool:
        return any(node.is_down for node in self.cluster.nodes)

    def _loop(self):
        env = self.cluster.env
        while not self._stopped:
            if self._degraded():
                self.metrics.backoff_rounds += 1
                delay = self.interval * self.degraded_backoff
            else:
                delay = self.interval
            yield env.timeout(delay)
            if self._stopped:
                return
            if self._paused:
                self.metrics.skipped_rounds += 1
                continue
            yield env.process(self.run_round(), name="scrub-round")

    def _target_views(self):
        manager = self.cluster.view_manager
        if manager is None:
            return []
        names = (self.view_names if self.view_names is not None
                 else manager.view_names())
        return [manager.view(name) for name in names]

    def _alive_coordinator(self):
        node_ids = [self.coordinator_id,
                    *range(self.cluster.config.nodes)]
        for node_id in node_ids:
            if not self.cluster.node(node_id).is_down:
                return self.cluster.coordinator(node_id)
        return None

    def run_round(self):
        """One scrub round over every target view; a simulation process.

        Also callable directly (``yield env.process(s.run_round())``) for
        deterministic tests.
        """
        self.metrics.rounds += 1
        views = self._target_views()
        coordinator = self._alive_coordinator()
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
        """Compare one view's rows, then verify/repair dirty ranges.

        Returns ``(rows_spent, clean)``.
        """
        cluster = self.cluster
        env = cluster.env
        manager = cluster.view_manager
        backlog = manager.outbox_backlog(view.name)
        if backlog:
            # Records for this view are still queued or working in the
            # node outboxes (watermarks behind the log heads): any row
            # mismatch right now is ordinary propagation lag, not
            # divergence.  Defer this view to the next round instead of
            # burning quorum reads on rows that are about to heal
            # themselves.  Records sleeping between failed rounds do not
            # count: what they wait for may be this scrub's repair.
            self.metrics.deferred_backlog += 1
            cluster.trace("scrub", "deferred: outbox backlog",
                          view=view.name, backlog=backlog)
            return 0, False
        # A row is judged only if no record of its chain was appended
        # since this check.  One appended later may be caught mid-move
        # (between its new-row and stale-pointer writes), or have moved
        # the row behind the live-row snapshot taken below: either reads
        # as a divergence that is not there.
        appends = _chain_appends(manager, view.name)
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
        if not dirty:
            cluster.trace("scrub", "view clean", view=view.name)
            # The row comparison sees an all-replica merge, which cannot
            # prove quorum-read visibility: chains the freshness tracker
            # holds wounds for still need a per-key quorum verify_row
            # before their wounds may clear.
            return (yield from self._verify_wounded(view, coordinator,
                                                    budget, live))
        scanner = self._scanners.get(view.name)
        if scanner is None:
            scanner = TokenRangeScanner(cluster, view.base_table,
                                        self.range_depth)
            self._scanners[view.name] = scanner
        plan = scanner.plan(dirty, budget, scanner.snapshot(live))
        cluster.trace("scrub", "scanning dirty ranges", view=view.name,
                      buckets=len(dirty), rows=len(plan.rows),
                      covered_all=plan.covered_all)
        spent = 0
        for _bucket, key in plan.rows:
            if self.rate_limit > 0:
                yield env.timeout(self.rate_limit)
            if coordinator.node.is_down:
                # Crash-loop resilience: the scrub coordinator died
                # mid-round.  Re-elect a live node instead of burning
                # the rest of the round's budget on guaranteed RPC
                # timeouts (200 ms each against a dead coordinator).
                coordinator = self._alive_coordinator()
                if coordinator is None:
                    return spent, False
                self.metrics.coordinator_switches += 1
                cluster.trace("scrub", "coordinator re-elected mid-round",
                              view=view.name,
                              coordinator=coordinator.node.node_id)
            spent += 1
            self.metrics.rows_scanned += 1
            verify_started = env.now
            try:
                divergence = yield from verify_row(
                    coordinator, view, key, manager.maintainer.quorum,
                    tuple(live.get(key, ())))
            except QuorumError:
                self.metrics.rows_skipped_unavailable += 1
                continue
            if (_chain_appends(manager, view.name).get(key, 0)
                    != appends.get(key, 0)):
                self.metrics.rows_skipped_in_flight += 1
                cluster.trace("scrub", "skipped: chain written since the check",
                              view=view.name, key=key)
                continue
            if divergence is None:
                # Incidental quorum-level cleanliness evidence: an open
                # wound observed before this verify began can heal.
                manager.freshness.note_verified_clean(view.name, key,
                                                     verify_started)
                continue
            self.metrics.divergences_found += 1
            self.metrics.note_divergence(env.now)
            manager.freshness.note_divergence(divergence, verify_started)
            cluster.trace("scrub", "divergence confirmed", view=view.name,
                          key=key, kind=divergence.kind)
            try:
                yield from repropagate_row(manager, coordinator, view, key,
                                           strays=divergence.strays)
            except (QuorumError, PropagationError):
                self.metrics.repair_failures += 1
                cluster.trace("scrub", "repair failed", view=view.name,
                              key=key)
            else:
                self.metrics.repairs_applied += 1
                cluster.trace("scrub", "repaired", view=view.name, key=key)
        return spent, False

    def _verify_wounded(self, view, coordinator, budget: int, live):
        """Quorum-verify chains with open freshness wounds after a
        clean row comparison; a simulation process.

        Wounds record propagations that *failed* — the all-replica merge can
        look converged while the failed chain's row is invisible to a
        majority read, so only a per-key ``verify_row`` (or a successful
        repair) may clear them.  This pass gathers healing evidence
        only: a clean round proved the all-replica merges agree,
        so a per-key quorum divergence here is sub-majority replication
        lag (a hint still pending), not chain damage.  Re-driving the
        row would be actively wrong — ``repropagate_row`` reads base at
        majority and can observe an *older* base state than the
        all-replica merge, resurrecting a dead live row.  The wound is
        left open (bounded reads keep escalating) until replica-level
        anti-entropy closes the visibility gap and a later pass finds
        the key quorum-clean.  Returns ``(rows_spent, clean)``; the
        view only counts clean when no wound survives the pass.
        """
        cluster = self.cluster
        env = cluster.env
        manager = cluster.view_manager
        tracker = manager.freshness
        spent = 0
        clean = True
        for key in tracker.wounded_keys(view.name):
            if spent >= budget:
                clean = False
                break
            if self.rate_limit > 0:
                yield env.timeout(self.rate_limit)
            if coordinator.node.is_down:
                coordinator = self._alive_coordinator()
                if coordinator is None:
                    return spent, False
                self.metrics.coordinator_switches += 1
                cluster.trace("scrub", "coordinator re-elected mid-round",
                              view=view.name,
                              coordinator=coordinator.node.node_id)
            spent += 1
            self.metrics.rows_scanned += 1
            verify_started = env.now
            try:
                divergence = yield from verify_row(
                    coordinator, view, key, manager.maintainer.quorum,
                    tuple(live.get(key, ())))
            except QuorumError:
                self.metrics.rows_skipped_unavailable += 1
                clean = False
                continue
            if divergence is None:
                tracker.note_verified_clean(view.name, key, verify_started)
                continue
            clean = False
            tracker.note_divergence(divergence, verify_started)
            cluster.trace("scrub", "wounded chain lagging quorum visibility",
                          view=view.name, key=key, kind=divergence.kind)
        return spent, clean and not tracker.wounded_keys(view.name)
