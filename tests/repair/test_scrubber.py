"""End-to-end scrubber tests: detect, repair, and operator controls."""

import pytest

from repro.cluster import Cluster
from repro.repair import ViewScrubber, divergent_base_keys
from repro.sim.latency import Fixed
from repro.views import check_view

from tests.repair.conftest import (
    VIEW,
    build,
    lose_one_propagation,
    populate,
    run_for,
)
from tests.views.conftest import make_config


def test_constructor_validation():
    cluster = build()
    with pytest.raises(ValueError):
        ViewScrubber(cluster, interval=0)
    with pytest.raises(ValueError):
        ViewScrubber(cluster, row_budget=0)
    with pytest.raises(ValueError):
        ViewScrubber(cluster, rate_limit=-1)
    with pytest.raises(ValueError, match="unknown view"):
        ViewScrubber(cluster, view_names=["NOPE"])


def test_constructor_defaults():
    cluster = build()
    scrubber = cluster.start_scrubber()
    assert scrubber.interval == 50.0
    assert scrubber.row_budget == 64
    assert scrubber.rate_limit == 0.1


def test_clean_view_costs_only_digest_comparisons():
    cluster = build()
    populate(cluster, 10)
    scrubber = cluster.start_scrubber(interval=20.0)
    run_for(cluster, 200.0)
    scrubber.stop()
    cluster.run_until_idle()
    metrics = scrubber.metrics
    assert metrics.rounds >= 5
    assert metrics.rows_scanned == 0  # every range skipped via digests
    assert metrics.ranges_compared > 0
    assert metrics.ranges_skipped_clean == metrics.ranges_compared
    assert metrics.clean_rounds == metrics.rounds


def test_scrub_round_over_an_idle_view_leaves_backing_off_empty():
    """Asking whether an idle chain is in flight changes nothing: no
    outbox's set of sleeping chains gains an entry."""
    cluster = build()
    populate(cluster, 4)
    scrubber = cluster.start_scrubber(interval=20.0)
    run_for(cluster, 100.0)
    scrubber.stop()
    cluster.run_until_idle()
    assert scrubber.metrics.rounds >= 2
    assert [outbox.sleeping for outbox in
            cluster.view_manager._outboxes.values()] == [set()] * 4


def test_scrubber_repairs_lost_propagation():
    cluster = build()
    populate(cluster, 12)
    lose_one_propagation(cluster, key=5, ts=100)
    assert cluster.view_manager.lost_propagations == 1
    assert divergent_base_keys(cluster, VIEW) == [5]

    scrubber = cluster.start_scrubber(interval=20.0, rate_limit=0.05)
    run_for(cluster, 400.0)
    scrubber.stop()
    cluster.run_until_idle()

    assert divergent_base_keys(cluster, VIEW) == []
    assert check_view(cluster, VIEW) == []
    metrics = scrubber.metrics
    assert metrics.divergences_found >= 1
    assert metrics.repairs_applied >= 1
    assert metrics.repair_failures == 0
    assert metrics.time_to_convergence() is not None
    assert metrics.time_to_convergence() > 0
    # The repaired row answers reads under its new key.
    reader = cluster.sync_client()
    assert [r.base_key for r in reader.get_view("V", "lost", ["m"])] == [5]


def test_scrubber_is_idempotent_after_convergence():
    cluster = build()
    populate(cluster, 8)
    lose_one_propagation(cluster, key=3, ts=100)
    scrubber = cluster.start_scrubber(interval=20.0)
    run_for(cluster, 300.0)
    repaired = scrubber.metrics.repairs_applied
    assert repaired >= 1
    run_for(cluster, 300.0)  # many more rounds on a converged view
    scrubber.stop()
    cluster.run_until_idle()
    assert scrubber.metrics.repairs_applied == repaired
    assert check_view(cluster, VIEW) == []


def test_degraded_cluster_backs_off():
    cluster = build()
    populate(cluster, 6)
    scrubber = cluster.start_scrubber(interval=20.0)
    run_for(cluster, 200.0)
    healthy_rounds = scrubber.metrics.rounds
    cluster.fail_node(3)
    run_for(cluster, 200.0)
    degraded_rounds = scrubber.metrics.rounds - healthy_rounds
    scrubber.stop()
    cluster.recover_node(3)
    cluster.run_until_idle()
    assert scrubber.metrics.backoff_rounds >= 1
    # 4x the interval => roughly a quarter of the round rate.
    assert degraded_rounds < healthy_rounds


def test_scrubber_avoids_down_coordinator():
    cluster = build()
    populate(cluster, 6)
    lose_one_propagation(cluster, key=1, ts=100)
    cluster.fail_node(0)  # the preferred coordinator
    scrubber = cluster.start_scrubber(interval=20.0)
    run_for(cluster, 600.0)
    scrubber.stop()
    cluster.recover_node(0)
    cluster.run_until_idle()
    cluster.env.run(until=cluster.repair_table("T"))
    cluster.run_until_idle()
    assert divergent_base_keys(cluster, VIEW) == []


def test_budget_spreads_many_divergences_over_rounds():
    cluster = build()
    populate(cluster, 12)
    for key in range(12):
        lose_one_propagation(cluster, key=key, ts=100 + key)
    assert len(divergent_base_keys(cluster, VIEW)) == 12
    scrubber = cluster.start_scrubber(interval=20.0, row_budget=3,
                                      rate_limit=0.05)
    run_for(cluster, 1_500.0)
    scrubber.stop()
    cluster.run_until_idle()
    assert divergent_base_keys(cluster, VIEW) == []
    assert check_view(cluster, VIEW) == []
    metrics = scrubber.metrics
    assert metrics.repairs_applied >= 12
    assert metrics.rounds >= 4  # the budget forced multiple rounds


def test_metrics_flow_into_cluster_snapshot():
    from repro.cluster.metrics import ClusterSnapshot, UtilizationTracker

    cluster = build()
    populate(cluster, 8)
    lose_one_propagation(cluster, key=4, ts=100)
    scrubber = cluster.start_scrubber(interval=20.0)
    tracker = UtilizationTracker(cluster)
    tracker.start()
    run_for(cluster, 300.0)
    scrubber.stop()
    cluster.run_until_idle()
    end = ClusterSnapshot.capture(cluster)
    assert cluster.view_manager.lost_propagations == 1
    metrics = scrubber.metrics
    assert metrics.rows_scanned >= 1
    assert metrics.divergences_found >= 1
    assert metrics.repairs_applied >= 1
    report = tracker.stop()
    assert report.end.at == end.at
    assert cluster.view_manager.lost_propagations == 1


def test_round_without_views_is_skipped():
    cluster = Cluster(make_config())
    cluster.create_table("T")
    scrubber = ViewScrubber(cluster, interval=20.0)
    run_for(cluster, 100.0)
    scrubber.stop()
    cluster.run_until_idle()
    assert scrubber.metrics.rounds >= 1
    assert scrubber.metrics.rounds == scrubber.metrics.skipped_rounds


def test_a_row_moved_after_the_backlog_check_is_not_judged(monkeypatch):
    """A scrub round checks the backlog, compares rows, then verifies
    every key of each dirty bucket.  Key 5 lost its propagation; while
    the round verifies the first key of 5's bucket, a client moves a
    later key to a new view key and its propagation completes.
    The round's live-row snapshot still shows the old row, so judging
    that key would "repair" a move that is no divergence and wound its
    chain.  It is skipped; only key 5 is found and repaired."""
    from repro.repair import scheduler
    from repro.repair.scanner import bucket_of

    cluster = build()
    populate(cluster, 64)
    lose_one_propagation(cluster, key=5, ts=100)
    scrubber = cluster.start_scrubber(interval=10_000.0, rate_limit=0.05)
    bucket = sorted((key for key in range(64)
                     if bucket_of(key, scrubber.range_depth)
                     == bucket_of(5, scrubber.range_depth)), key=repr)
    moved = [key for key in bucket if key != 5][-1]
    assert bucket.index(moved) > 0
    env = cluster.env
    verify_row = scheduler.verify_row
    calls = []

    def verify_then_move(coordinator, view, key, quorum, live_keys):
        calls.append(key)
        divergence = yield from verify_row(coordinator, view, key, quorum,
                                           live_keys)
        if len(calls) == 1:
            yield from cluster.client(coordinator_id=2).put(
                "T", moved, {"vk": "moved"}, 2, 200)
            yield env.timeout(50.0)     # its propagation completes
        return divergence

    monkeypatch.setattr(scheduler, "verify_row", verify_then_move)
    env.run(until=env.process(scrubber.run_round()))
    scrubber.stop()
    cluster.run_until_idle()

    assert calls == bucket
    metrics = scrubber.metrics
    assert metrics.rows_skipped_in_flight == 1
    assert metrics.divergences_found == metrics.repairs_applied == 1
    # Key 5's crash-lost wound is the only one; the repair healed it.
    tracker = cluster.view_manager.freshness
    assert tracker.wounds_opened == tracker.wounds_healed == 1
    assert divergent_base_keys(cluster, VIEW) == []
    assert check_view(cluster, VIEW) == []
    rows = cluster.sync_client().get_view("V", "moved", ["m"])
    assert [row.base_key for row in rows] == [moved]


def test_scrubber_does_not_wait_for_a_record_only_it_can_unwedge():
    """A view-key move on key 5 is lost to a coordinator crash; the next
    Put of key 5 guesses the row the lost move never wrote and retries
    to its round budget (200 rounds, over a second) for a row only the
    scrubber can create.  The in-flight rule must not count that record
    while it sleeps between rounds, or scrubber and record wait on each
    other."""
    cluster = build()
    populate(cluster, 12)
    lose_one_propagation(cluster, key=5, ts=100)
    env = cluster.env
    env.process(cluster.client(coordinator_id=1).put(
        "T", 5, {"vk": "after"}, 2, 101))
    run_for(cluster, 10.0)         # acked; the record is failing rounds
    manager = cluster.view_manager
    assert manager.maintainer.metrics.retry_rounds >= 2
    assert divergent_base_keys(cluster, VIEW) == [5]

    interval = 20.0
    scrubber = cluster.start_scrubber(interval=interval, rate_limit=0.05)
    run_for(cluster, 5 * interval)
    assert divergent_base_keys(cluster, VIEW) == []
    assert scrubber.metrics.repairs_applied >= 1
    scrubber.stop()
    cluster.run_until_idle()
    # The repair wrote the row the record was waiting for.
    assert manager.abandoned_propagations == 0
    assert check_view(cluster, VIEW) == []
    rows = cluster.sync_client().get_view("V", "after", ["m"])
    assert [row.base_key for row in rows] == [5]


def test_a_repair_heals_its_wound_while_a_successor_sleeps(monkeypatch):
    """Key 5's view-key move is lost to a crash (a ``crash-lost``
    wound) and the next Put's record sleeps between failed rounds,
    waiting for the row only the repair writes.  The repair re-drives
    the row's current base state at quorum, so the wound heals the
    instant it commits, with the successor still asleep: that record is
    covered by its own outbox-lag source and wounds the chain itself
    if it fails.  (Fuzz seed 18 reaches this shape twice; this is it
    without the rest of the schedule.)"""
    from repro.repair import scheduler

    cluster = build()
    populate(cluster, 12)
    lose_one_propagation(cluster, key=5, ts=100)
    env = cluster.env
    env.process(cluster.client(coordinator_id=1).put(
        "T", 5, {"vk": "after"}, 2, 101))
    manager = cluster.view_manager
    tracker = manager.freshness
    retries = manager.maintainer.metrics
    outbox = manager._outboxes[1]
    chain = (VIEW.name, 5)
    # Past the first few rounds every backoff sleep is 4-8 ms long.
    while retries.retry_rounds < 6 or chain not in outbox.sleeping:
        run_for(cluster, 0.01)
    assert [source.provenance for source in tracker.sources("V")] == [
        "outbox-lag", "crash-lost"]

    repropagate_row = scheduler.repropagate_row
    seen = {}

    def repair_then_look(*args, **kwargs):
        result = yield from repropagate_row(*args, **kwargs)
        seen.update(asleep=chain in outbox.sleeping,
                    pending=manager.pending_propagations,
                    sources=[source.provenance
                             for source in tracker.sources("V")])
        return result

    monkeypatch.setattr(scheduler, "repropagate_row", repair_then_look)
    scrubber = cluster.start_scrubber(interval=10_000.0, rate_limit=0.05)
    env.run(until=env.process(scrubber.run_round()))
    assert scrubber.metrics.repairs_applied == 1
    assert seen == {"asleep": True, "pending": 1,
                    "sources": ["outbox-lag"]}
    assert tracker.wounds_opened == tracker.wounds_healed == 1

    scrubber.stop()
    cluster.run_until_idle()
    assert manager.abandoned_propagations == 0
    assert tracker.open_wounds == 0
    assert check_view(cluster, VIEW) == []


def test_a_put_written_but_not_yet_appended_is_not_judged():
    """A W = 3 Put of key 5 has landed on two replicas while the third
    (slowed) has yet to ack, so no record stands for it yet.  The
    rows differ and a quorum read sees the new base value, but the Put
    is in flight on the chain: the round leaves the row unjudged instead
    of "repairing" what its own record is about to propagate."""
    cluster = build()
    populate(cluster, 12)
    replicas = [node.node_id for node in cluster.replicas_for("T", 5)]
    (outsider,) = [node.node_id for node in cluster.nodes
                   if node.node_id not in replicas]
    # Slow a replica the scrub round's own round trip (node 0 to node
    # 1) does not touch: its messages take 50 ms each way.
    cluster.network.set_slowdown(max(replicas), 500.0)
    env = cluster.env
    acked = []

    def put_at_three():
        yield from cluster.client(coordinator_id=outsider).put(
            "T", 5, {"vk": "new"}, 3, 200)
        acked.append(env.now)

    env.process(put_at_three())
    # The Put's read round waits for all three replicas, then its write
    # reaches the two fast ones.
    while not divergent_base_keys(cluster, VIEW):
        run_for(cluster, 1.0)
    manager = cluster.view_manager
    assert divergent_base_keys(cluster, VIEW) == [5]
    assert manager.pending_propagations == 0 and not acked

    scrubber = cluster.start_scrubber(interval=10_000.0)
    env.run(until=env.process(scrubber.run_round()))
    metrics = scrubber.metrics
    assert not acked                  # the whole round ran in the window
    assert metrics.rows_skipped_in_flight == 1
    assert metrics.divergences_found == metrics.repairs_applied == 0

    scrubber.stop()
    cluster.network.set_slowdown(max(replicas), 1.0)
    cluster.run_until_idle()
    assert acked
    assert manager.freshness.wounds_opened == 0
    assert divergent_base_keys(cluster, VIEW) == []
    assert check_view(cluster, VIEW) == []


def test_a_crash_lost_chain_is_repaired_while_other_chains_work():
    """Key 5's propagation is lost to a crash while clients keep writing
    other keys, so some record is always working in the outboxes.  The
    scrubber judges chain by chain, so it repairs key 5 under that load
    instead of waiting for the writes to stop, and leaves the working
    chains alone."""
    cluster = build(propagation_delay=Fixed(5.0))
    populate(cluster, 12)
    lose_one_propagation(cluster, key=5, ts=100)
    env = cluster.env
    manager = cluster.view_manager
    writing = [True]
    busy = []

    def writer(coordinator_id, keys):
        client = cluster.client(coordinator_id=coordinator_id)
        ts = 1_000
        while writing[0]:
            for key in keys:
                ts += 1
                yield from client.put("T", key, {"m": f"w{ts}"}, 2, ts)
                busy.append(manager.pending_propagations > 0)
                yield env.timeout(1.0)

    env.process(writer(2, (0, 1, 2)))
    env.process(writer(3, (6, 7, 8)))
    scrubber = cluster.start_scrubber(interval=20.0, rate_limit=0.05)
    run_for(cluster, 200.0)
    assert all(busy)                  # a record pending after every Put
    assert 5 not in divergent_base_keys(cluster, VIEW)
    metrics = scrubber.metrics
    assert metrics.divergences_found == metrics.repairs_applied == 1
    assert metrics.rows_skipped_in_flight >= 1

    writing[0] = False
    run_for(cluster, 100.0)
    scrubber.stop()
    cluster.run_until_idle()
    assert metrics.repairs_applied == 1
    tracker = manager.freshness
    assert tracker.wounds_opened == tracker.wounds_healed == 1
    assert divergent_base_keys(cluster, VIEW) == []
    assert check_view(cluster, VIEW) == []
    rows = cluster.sync_client().get_view("V", "lost", ["m"])
    assert [row.base_key for row in rows] == [5]


def test_a_sleeper_that_runs_a_round_mid_verify_is_not_judged(monkeypatch):
    """Key 5's view-key move is lost to a crash and the next Put's
    record sleeps between failed rounds.  A round compares rows while
    it sleeps, so its chain is not in flight; but it wakes and runs a
    round while key 5 is being verified, which moves the chain's turn.
    The row is left unjudged: that round could have moved it under the
    verify.  A later round repairs it."""
    from repro.repair import scheduler

    cluster = build()
    populate(cluster, 12)
    lose_one_propagation(cluster, key=5, ts=100)
    env = cluster.env
    env.process(cluster.client(coordinator_id=1).put(
        "T", 5, {"vk": "after"}, 2, 101))
    manager = cluster.view_manager
    retries = manager.maintainer.metrics
    outbox = manager._outboxes[1]
    chain = (VIEW.name, 5)
    # Past the first few rounds every backoff sleep is 4-8 ms long.
    while retries.retry_rounds < 6 or chain not in outbox.sleeping:
        run_for(cluster, 0.01)

    verify_row = scheduler.verify_row
    seen = {}

    def verify_then_wait(coordinator, view, key, quorum, live_keys):
        if key == 5:
            seen["asleep"] = chain in outbox.sleeping
            seen["rounds"] = retries.retry_rounds
        divergence = yield from verify_row(coordinator, view, key, quorum,
                                           live_keys)
        if key == 5:
            yield env.timeout(20.0)   # the sleeper wakes, fails a round
            seen["rounds"] = retries.retry_rounds - seen["rounds"]
        return divergence

    monkeypatch.setattr(scheduler, "verify_row", verify_then_wait)
    scrubber = cluster.start_scrubber(interval=10_000.0, rate_limit=0.05)
    env.run(until=env.process(scrubber.run_round()))
    assert seen["asleep"] and seen["rounds"] >= 1
    metrics = scrubber.metrics
    assert metrics.rows_skipped_in_flight == 1
    assert metrics.divergences_found == metrics.repairs_applied == 0

    monkeypatch.setattr(scheduler, "verify_row", verify_row)
    while not metrics.repairs_applied:
        while chain not in outbox.sleeping:
            run_for(cluster, 0.01)
        env.run(until=env.process(scrubber.run_round()))
    scrubber.stop()
    cluster.run_until_idle()
    assert manager.abandoned_propagations == 0
    assert divergent_base_keys(cluster, VIEW) == []
    assert check_view(cluster, VIEW) == []
