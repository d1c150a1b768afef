"""The standing invariant suite checked after every scenario.

Each :class:`Invariant` inspects a quiesced scenario — adversaries
stopped, faults healed, propagation drained, replicas repaired — and
returns human-readable violation strings (empty list = holds).  The
suite encodes what the paper's design guarantees *whenever the faults
stop*:

``ViewOracleAgreement``
    The converged base table equals the LWW fold of every applied
    update, the view's versioned structure is sound (Definition 3 /
    Theorem 1), and every live view row agrees exactly with the
    :class:`~repro.views.model.ReferenceViewModel` oracle.
``SessionReadYourWrites``
    Every session view-read issued after a session Put observed that
    Put — unless a concurrent higher-timestamp write moved the row, or
    a propagation failure legitimately released the session barrier
    (barriers wait for *resolution*, not success).
``OutboxConservation``
    No propagation vanishes without an accounting entry: appended
    records minus coalesced (folded ones included) equals completed +
    lost + abandoned, and the queues are empty at quiescence.
``BoundedQueueDepth``
    Backpressure held: the records holding a token never exceeded the
    configured bound, even under burst adversaries, and the heavy
    records that hold none never exceeded two per chain.
``NoLeakedLocks``
    The concurrency-control lock service holds no locks once quiesced.
``ClusterHealed``
    Every adversary cleaned up after itself: the runner records any
    partition, slowdown, skew, or down node it had to heal itself at
    quiescence, and this invariant reports them.
``FreshnessBoundHonored``
    Every bounded-staleness view read that claimed its bound actually
    honored it: replayed against the acknowledged-update oracle, the
    result reflects every update acked ``max_staleness_ms`` before the
    read's certificate time (no failure excuse — lost and abandoned
    propagations must be covered by wounds and compensation).
"""

from __future__ import annotations

from typing import List

from repro.freshness import check_bounded_reads
from repro.views.invariants import check_view, live_entries
from repro.views.outbox import WORKERS

__all__ = [
    "Invariant",
    "ViewOracleAgreement",
    "SessionReadYourWrites",
    "OutboxConservation",
    "BoundedQueueDepth",
    "NoLeakedLocks",
    "ClusterHealed",
    "FreshnessBoundHonored",
    "STANDING_INVARIANTS",
]


class Invariant:
    """One post-quiescence property of a scenario."""

    name = "invariant"

    def check(self, scenario) -> List[str]:
        """Return violation strings; an empty list means it holds."""
        raise NotImplementedError


class ViewOracleAgreement(Invariant):
    """Base and view agree with the Definition 2/3 reference oracle."""

    name = "view-oracle"

    def check(self, scenario) -> List[str]:
        violations = list(check_view(scenario.cluster, scenario.view))
        violations.extend(self._check_base(scenario))
        violations.extend(self._check_live_rows(scenario))
        return violations

    @staticmethod
    def _check_base(scenario) -> List[str]:
        """Converged base table == LWW fold of the applied updates."""
        violations = []
        logical = scenario.logical_base()
        actual = scenario.cluster.converged_rows(scenario.view.base_table)
        for key in sorted(set(logical) | set(actual), key=repr):
            expected_cells = logical.get(key, {})
            actual_cells = actual.get(key, {})
            for column in sorted(set(expected_cells) | set(actual_cells),
                                 key=repr):
                expected = expected_cells.get(column)
                got = actual_cells.get(column)
                expected_view = (None if expected is None
                                 else (expected.value, expected.timestamp,
                                       expected.tombstone))
                got_view = (None if got is None
                            else (got.value, got.timestamp, got.tombstone))
                if expected_view != got_view:
                    violations.append(
                        f"base {key!r}.{column!r}: stored {got_view!r}, "
                        f"oracle fold expects {expected_view!r}")
        return violations

    @staticmethod
    def _check_live_rows(scenario) -> List[str]:
        """Each base key's live view row matches the oracle exactly."""
        violations = []
        oracle = scenario.oracle()
        live = live_entries(scenario.cluster, scenario.view)
        keys = set(oracle.tracked_base_keys()) | set(live)
        for key in sorted(keys, key=repr):
            expected_live = oracle.live_key_for(key)
            entries = live.get(key, {})
            if expected_live is None:
                if entries:
                    violations.append(
                        f"base key {key!r}: live rows {sorted(entries)!r} "
                        "but the oracle saw no update for it")
                continue
            if list(entries) != [expected_live]:
                violations.append(
                    f"base key {key!r}: live under {sorted(entries)!r}, "
                    f"oracle expects {expected_live!r}")
                continue
            expected_values = oracle.live_values_for(key)
            if expected_values is None:
                continue
            (entry,) = entries.values()
            for column, expected_value in expected_values.items():
                cell = entry.cells.get(column)
                actual = (None if cell is None or cell.is_null
                          else cell.value)
                if actual != expected_value:
                    violations.append(
                        f"base key {key!r}: live {column!r} = {actual!r}, "
                        f"oracle expects {expected_value!r}")
        return violations


class SessionReadYourWrites(Invariant):
    """Session reads observe the session's own propagations.

    A session view-read right after a session Put must return that
    Put's row, except when (a) some applied write to the same base
    key's view-key column carries a higher timestamp — the row
    legitimately moved under LWW — or (b) the run lost or abandoned
    propagations: the paper's barriers release on *resolution*, so a
    failed propagation lets the read proceed without the row (that
    divergence is the scrubber's job, and ``ViewOracleAgreement``
    still pins the final state).  In fault-free runs neither excuse
    fires and the check is exact.
    """

    name = "session-read-your-writes"

    def check(self, scenario) -> List[str]:
        violations = []
        manager = scenario.cluster.view_manager
        failures_excuse = (manager.lost_propagations
                           + manager.abandoned_propagations) > 0
        key_ts = scenario.workload.key_update_timestamps(
            scenario.view.view_key_column)
        for obs in scenario.workload.observations:
            observed = {base_key for base_key, _values in obs.rows}
            if obs.base_key in observed:
                continue
            superseded = any(ts > obs.put_ts
                             for ts in key_ts.get(obs.base_key, ()))
            if superseded or failures_excuse:
                continue
            violations.append(
                f"client {obs.client_id} at t={obs.at:.1f}: read of view "
                f"key {obs.view_key!r} missed own write to base key "
                f"{obs.base_key!r} (ts={obs.put_ts})")
        return violations


class OutboxConservation(Invariant):
    """Every propagation is accounted for, the queues are empty and
    every worker slot is back."""

    name = "outbox-conservation"

    def check(self, scenario) -> List[str]:
        manager = scenario.cluster.view_manager
        violations = []
        pending = manager.pending_propagations
        if pending != 0:
            violations.append(
                f"{pending} propagations still pending after quiescence")
        stats = manager.outbox_stats()
        if stats["depth"] != 0:
            violations.append(
                f"outbox depth {stats['depth']} != 0 after quiescence")
        if stats["lag"] != 0:
            violations.append(
                f"outbox lag {stats['lag']} != 0 after quiescence")
        held = {node_id: WORKERS - outbox.workers.tokens
                for node_id, outbox in manager._outboxes.items()
                if outbox.workers.tokens != WORKERS}
        if held:
            violations.append(
                f"worker slots still held after quiescence: {held}")
        resolved = (manager.completed_propagations
                    + manager.lost_propagations
                    + manager.abandoned_propagations)
        survivors = stats["appended"] - stats["coalesced"]
        if survivors != resolved:
            violations.append(
                f"conservation broken: appended {stats['appended']} - "
                f"coalesced {stats['coalesced']} = {survivors}, but "
                f"completed {manager.completed_propagations} + lost "
                f"{manager.lost_propagations} + abandoned "
                f"{manager.abandoned_propagations} = {resolved}")
        return violations


class BoundedQueueDepth(Invariant):
    """Backpressure held: records with a token never exceeded the
    configured bound, nor those without one two per chain."""

    name = "bounded-queue-depth"

    def check(self, scenario) -> List[str]:
        bound = scenario.cluster.config.max_pending_propagations
        violations = []
        for node_id, outbox in sorted(
                scenario.cluster.view_manager._outboxes.items()):
            # The peak each outbox kept itself, not a sample of it.
            if outbox.max_depth > bound:
                violations.append(
                    f"node {node_id}: outbox depth peaked at "
                    f"{outbox.max_depth} > bound {bound}")
            # Heavy records take no token; a chain has at most a
            # started and a parked one per node.
            if outbox.max_token_free > 2 * len(outbox.chain_appends):
                violations.append(
                    f"node {node_id}: {outbox.max_token_free} token-free "
                    f"records over {len(outbox.chain_appends)} chains")
        return violations


class NoLeakedLocks(Invariant):
    """The propagation lock service is empty once quiesced."""

    name = "no-leaked-locks"

    def check(self, scenario) -> List[str]:
        locks = scenario.cluster.view_manager.locks
        if locks.active_locks:
            return [f"{locks.active_locks} locks still held or queued "
                    "after quiescence"]
        return []


class ClusterHealed(Invariant):
    """Adversaries healed everything they broke before quiescence."""

    name = "cluster-healed"

    def check(self, scenario) -> List[str]:
        return [f"adversary left damage behind: {item}"
                for item in scenario.unhealed]


class FreshnessBoundHonored(Invariant):
    """Bounded-staleness reads kept their promise against the oracle.

    Checked only after ambiguous Puts are resolved (the runner settles
    them before invariants run): an ambiguous-but-applied Put carries an
    infinite ack time, so it is never *required* by any horizon yet
    still excuses rows it moved.  Unlike the session invariant there is
    deliberately no lost/abandoned-propagation excuse: the freshness
    subsystem exists precisely to cover failures with wounds and
    compensation reads.
    """

    name = "freshness-bound-honored"

    def check(self, scenario) -> List[str]:
        observations = scenario.workload.bounded_observations
        if not observations:
            return []
        return check_bounded_reads(scenario.view, observations,
                                   scenario.workload.applied)


STANDING_INVARIANTS = (
    ViewOracleAgreement(),
    SessionReadYourWrites(),
    OutboxConservation(),
    BoundedQueueDepth(),
    NoLeakedLocks(),
    ClusterHealed(),
    FreshnessBoundHonored(),
)
