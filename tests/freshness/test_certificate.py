"""Unit tests for the freshness tracker and certificate math."""

import pytest

from repro.freshness.certificate import FreshnessTracker, StaleSource
from repro.freshness.slo import HISTOGRAM_BOUNDS, FreshnessSLO
from repro.scenarios import lose_propagations
from repro.sim import Environment
from repro.sim.latency import Fixed
from repro.views import NodeOutbox, ViewDefinition, check_view

from tests.repair.conftest import VIEW, build, populate, run_for


class _Clock:
    def __init__(self):
        self.now = 0.0


def make_tracker():
    clock = _Clock()
    return FreshnessTracker(clock, {}), clock


# -- wounds ------------------------------------------------------------------


def test_wound_open_and_heal():
    tracker, clock = make_tracker()
    clock.now = 50.0
    tracker.note_wound("V", "k1", 10.0, "crash-lost")
    assert tracker.open_wounds == 1
    assert tracker.wounded_keys("V") == ["k1"]
    assert tracker.wounded_keys("other") == []
    tracker.note_repaired("V", "k1")
    assert tracker.open_wounds == 0
    assert tracker.wounds_healed == 1


def test_wound_merge_keeps_oldest_origin():
    tracker, clock = make_tracker()
    clock.now = 50.0
    tracker.note_wound("V", "k1", 30.0, "retries-abandoned")
    clock.now = 60.0
    tracker.note_wound("V", "k1", 10.0, "crash-lost")
    assert tracker.wounds_opened == 1  # merged, not a second wound
    sources = tracker.sources("V")
    assert len(sources) == 1
    assert sources[0].origin == 10.0
    assert sources[0].provenance == "crash-lost"


def test_wound_merge_refreshes_created_time():
    """A later failure merged into an open wound must not be clearable
    by a verification that started before the later failure."""
    tracker, clock = make_tracker()
    clock.now = 50.0
    tracker.note_wound("V", "k1", 30.0, "crash-lost")
    clock.now = 70.0
    tracker.note_wound("V", "k1", 60.0, "crash-lost")
    # Verify began between the two failures: must NOT clear.
    tracker.note_verified_clean("V", "k1", verified_since=55.0)
    assert tracker.open_wounds == 1
    # Verify began after the second failure: clears.
    tracker.note_verified_clean("V", "k1", verified_since=75.0)
    assert tracker.open_wounds == 0


def test_inflight_propagation_vetoes_clearing():
    """The one rule that still holds a heal back is the scrubber's: it
    judges no row whose chain has a record awake.  Key 5's update of
    ``m`` is lost to a crash, then a later update of ``m`` is working
    (its scheduling delay) while a round compares rows, so the round
    leaves the wounded row unjudged.  That record lands the later
    value, and the first verify after it resolves heals the wound."""
    cluster = build(propagation_delay=Fixed(30.0))
    populate(cluster, 12)
    lose_propagations(cluster, 1, 10.0, base_key=5)
    cluster.sync_client(coordinator_id=1).put("T", 5, {"m": "lost"},
                                              w=2, timestamp=100)
    run_for(cluster, 50.0)
    env = cluster.env
    manager = cluster.view_manager
    tracker = manager.freshness
    assert [source.provenance for source in tracker.sources("V")] == [
        "crash-lost"]
    env.process(cluster.client(coordinator_id=2).put(
        "T", 5, {"m": "later"}, 2, 101))
    run_for(cluster, 5.0)
    assert manager.chain_epoch("V", 5) is None   # the record is awake

    scrubber = cluster.start_scrubber(interval=10_000.0)
    env.run(until=env.process(scrubber.run_round()))
    metrics = scrubber.metrics
    assert metrics.rows_skipped_in_flight == 1
    assert metrics.rows_scanned == 0
    assert tracker.open_wounds == 1

    while manager.pending_propagations:
        run_for(cluster, 1.0)
    assert tracker.open_wounds == 1              # no verify yet
    env.run(until=env.process(scrubber.run_round()))
    assert metrics.rows_scanned == 1
    assert metrics.divergences_found == metrics.repairs_applied == 0
    assert tracker.open_wounds == 0 and tracker.wounds_healed == 1
    scrubber.stop()
    cluster.run_until_idle()
    assert check_view(cluster, VIEW) == []


def _drain_without_wounds(puts):
    """Run ``(coordinator, vk, timestamp)`` Puts of base key 5, one
    after another as listed, each issued before any record has
    finished; once drained the view is right and no wound was ever
    opened.  Returns the cluster."""
    cluster = build(propagation_delay=Fixed(5.0))
    populate(cluster, 12)
    env = cluster.env
    for coordinator, vk, ts in puts:
        env.process(cluster.client(coordinator_id=coordinator).put(
            "T", 5, {"vk": vk, "m": f"m{ts}"}, 2, ts))
        run_for(cluster, 1.0)
    manager = cluster.view_manager
    assert manager.pending_propagations == len(puts)   # all overlap
    cluster.run_until_idle()
    assert manager.pending_propagations == 0
    assert check_view(cluster, VIEW) == []
    assert manager.freshness.wounds_opened == 0
    assert manager.freshness.sources("V") == []
    return cluster


def test_in_flight_executions_open_no_wound():
    """Chains are serialized, and serialized propagations converge in
    any order: two coordinators' records of one chain working at once
    open no wound."""
    _drain_without_wounds([(0, "a", 108), (1, "b", 109)])


def test_same_executor_reorder_is_safe():
    """A newer update landing before an older one on the same chain
    opens no wound."""
    cluster = _drain_without_wounds([(1, "b", 109), (0, "a", 108)])
    rows = cluster.sync_client().get_view("V", "b", ["m"])
    assert [(row.base_key, row["m"]) for row in rows] == [(5, "m109")]


def test_newer_base_ts_after_older_is_safe():
    _drain_without_wounds([(0, "a", 108), (1, "b", 109), (0, "a", 110)])


# -- certificates ------------------------------------------------------------


def test_certificate_fresh_when_no_sources():
    tracker, clock = make_tracker()
    clock.now = 123.0
    cert = tracker.certificate("V")
    assert cert.open_sources == 0
    assert cert.staleness_ms == 0.0
    assert cert.provenance == "fresh"
    assert cert.within(0.0)


def test_certificate_binds_to_oldest_source():
    tracker, clock = make_tracker()
    clock.now = 100.0
    tracker.note_wound("V", "k1", 40.0, "crash-lost")
    tracker.note_wound("V", "k2", 70.0, "retries-abandoned")
    cert = tracker.certificate("V")
    assert cert.staleness_ms == 60.0
    assert cert.provenance == "crash-lost"
    assert cert.open_sources == 2
    assert cert.within(60.0) and not cert.within(59.9)


def test_unresolved_outbox_record_is_a_source():
    env = Environment()
    outbox = NodeOutbox(env, node_id=0, capacity=4)
    tracker = FreshnessTracker(env, {0: outbox})
    env.run(until=10.0)
    record, _starts = outbox.append(
        ViewDefinition("V", "T", "vk", ("m",)), "T", "k1", {"m": "x"}, 100,
        (None, None), env.event())
    env.run(until=35.0)
    cert = tracker.certificate("V")
    assert cert.staleness_ms == 25.0
    assert cert.provenance == "outbox-lag"
    record.resolve()
    env.run()
    assert tracker.certificate("V").open_sources == 0


def test_lagging_keys_min_merges_per_key():
    sources = [
        StaleSource("k1", 40.0, "outbox-lag"),
        StaleSource("k1", 20.0, "crash-lost"),
        StaleSource("k2", 80.0, "retries-abandoned"),
        StaleSource("k3", 95.0, "outbox-lag"),
    ]
    lagging = FreshnessTracker.lagging_keys(sources, horizon=90.0)
    assert lagging == [("k1", 20.0, "crash-lost"),
                       ("k2", 80.0, "retries-abandoned")]


def test_residual_certificate_after_full_compensation():
    tracker, clock = make_tracker()
    clock.now = 100.0
    sources = [StaleSource("k1", 20.0, "crash-lost"),
               StaleSource("k2", 95.0, "outbox-lag")]
    cert = tracker.certificate("V", 30.0, sources=sources)
    assert cert.staleness_ms == 80.0
    served = FreshnessTracker.residual_certificate(cert, sources, 30.0)
    # k1 (older than the horizon) was compensated; k2's 5 ms remain.
    assert served.bound_met is True
    assert served.compensated is True
    assert served.staleness_ms == 5.0
    assert served.provenance == "compensated(crash-lost)"


# -- SLO accounting ----------------------------------------------------------


def test_slo_histogram_and_counters():
    slo = FreshnessSLO()
    slo.observe("V", 0.5, bounded=False)
    slo.observe("V", 3.0, bounded=True)
    slo.observe("V", 9999.0, bounded=True, escalated=True,
                compensated_keys=4)
    stats = slo.stats()
    assert stats["reads_unbounded"] == 1
    assert stats["reads_bounded"] == 2
    assert stats["bound_hits"] == 1
    assert stats["escalations"] == 1
    assert stats["compensated_keys"] == 4
    assert stats["max_served_staleness_ms"]["V"] == 9999.0
    histogram = slo.histogram("V")
    assert len(histogram) == len(HISTOGRAM_BOUNDS) + 1
    assert histogram[0] == (1.0, 1)          # 0.5 ms
    assert histogram[2] == (5.0, 1)          # 3.0 ms
    assert histogram[-1] == (float("inf"), 1)  # 9999 ms
    assert sum(count for _edge, count in histogram) == 3


def test_slo_unknown_view_histogram_is_empty():
    slo = FreshnessSLO()
    assert all(count == 0 for _edge, count in slo.histogram("missing"))


def test_bound_validation():
    slo = FreshnessSLO()
    with pytest.raises(TypeError):
        slo.observe("V", 1.0)  # bounded is keyword-only and required
