"""The outbox: coalescing, chain FIFO, backpressure, scrubber
interaction, and observability.

These tests run the full stack with slow propagation delays so records
pile up in the per-node logs while base Puts keep acking — the
load-leveling behaviour the outbox exists for.
"""

from repro.cluster import Cluster
from repro.repair import divergent_base_keys
from repro.sim.kernel import Environment
from repro.sim.latency import Fixed
from repro.views import (
    NodeOutbox,
    ViewDefinition,
    check_view,
    collect_entries,
    live_entries,
)

from tests.repair.conftest import VIEW, build, populate, run_for
from tests.views.conftest import make_config


def _drive(cluster, puts, *, coordinator_id=1, w=2):
    """Run ``puts`` (key, values, ts) back-to-back through one client,
    then drain the simulation."""
    def workload():
        client = cluster.client(coordinator_id=coordinator_id)
        for key, values, ts in puts:
            yield from client.put("T", key, values, w, ts)
    process = cluster.env.process(workload())
    cluster.env.run(until=process)
    cluster.run_until_idle()


def test_hot_key_burst_coalesces_to_latest():
    """Back-to-back refreshes of one (view, key) chain collapse: the log
    keeps at most the started record plus one parked successor, and the
    view converges to exactly the last write."""
    cluster = build(propagation_delay=Fixed(10.0))
    puts = [(0, {"vk": "a"}, 100)]
    puts += [(0, {"m": f"v{i}"}, 101 + i) for i in range(10)]
    _drive(cluster, puts)

    manager = cluster.view_manager
    stats = manager.outbox_stats()
    assert stats["appended"] == 11
    # The first m-refresh starts (or parks) before the rest arrive;
    # every later one supersedes its parked predecessor.
    assert stats["coalesced"] >= 8
    assert 0.0 < stats["coalesce_ratio"] < 1.0
    # Coalesced records never ran Algorithm 2 — only the survivors did.
    assert manager.completed_propagations == (
        stats["appended"] - stats["coalesced"])
    assert manager.lost_propagations == 0
    # Fully drained: no depth, every record (riders too) resolved.
    assert stats["depth"] == 0
    assert stats["lag"] == 0

    assert check_view(cluster, VIEW) == []
    live = live_entries(cluster, VIEW)
    assert list(live[0]) == ["a"]
    cell = live[0]["a"].cells.get("m")
    assert cell is not None and cell.value == "v9"


def test_view_key_transitions_never_coalesce():
    """Each view-key move writes a distinct stale row Algorithm 4
    readers rely on; the log must propagate every transition."""
    cluster = build(propagation_delay=Fixed(10.0))
    _drive(cluster, [(0, {"vk": key}, 100 + i)
                     for i, key in enumerate(["a", "b", "c"])])

    manager = cluster.view_manager
    stats = manager.outbox_stats()
    assert stats["appended"] == 3
    assert stats["coalesced"] == 0
    assert manager.completed_propagations == 3

    assert check_view(cluster, VIEW) == []
    assert list(live_entries(cluster, VIEW)[0]) == ["c"]
    # The intermediate destinations left their (stale) rows behind.
    assert {"a", "b", "c"} <= set(collect_entries(cluster, VIEW)[0])


def test_same_destination_refresh_coalesces():
    """Re-writing the same view key is not a transition: queued
    duplicates collapse."""
    cluster = build(propagation_delay=Fixed(10.0))
    _drive(cluster, [(0, {"vk": "a"}, 100 + i) for i in range(3)])

    manager = cluster.view_manager
    stats = manager.outbox_stats()
    assert stats["appended"] == 3
    assert stats["coalesced"] == 1
    assert manager.completed_propagations == 2
    assert check_view(cluster, VIEW) == []
    assert list(live_entries(cluster, VIEW)[0]) == ["a"]


def test_predicate_rejected_keys_coalesce_via_null_anchor():
    """Selection predicates map rejected values to the NULL anchor:
    two different rejected raw values are the *same* effective view key,
    so their records coalesce."""
    view = ViewDefinition("PV", "T", "vk", ("m",),
                          key_predicate=lambda v: v == "keep")
    cluster = Cluster(make_config(propagation_delay=Fixed(10.0)))
    cluster.create_table("T")
    cluster.create_view(view)
    _drive(cluster, [(0, {"vk": f"drop-{i}"}, 100 + i) for i in range(3)])

    stats = cluster.view_manager.outbox_stats()
    assert stats["appended"] == 3
    assert stats["coalesced"] == 1
    assert check_view(cluster, view) == []


def test_burst_queue_depth_bounded_by_backpressure():
    """A 30-Put burst over distinct keys through one coordinator: the
    node's log never holds more than ``max_pending_propagations``
    records, every Put still completes, and the view converges."""
    cluster = build(max_pending_propagations=4,
                    propagation_delay=Fixed(5.0))
    env = cluster.env
    client = cluster.client(coordinator_id=1)
    for i in range(30):
        env.process(client.put(
            "T", i, {"vk": f"g{i % 3}", "m": f"m{i}"}, 2, 100 + i))
    cluster.run_until_idle()

    manager = cluster.view_manager
    stats = manager.outbox_stats()
    assert stats["appended"] == 30
    assert stats["max_depth"] <= 4
    assert stats["per_node"][1]["max_depth"] <= 4
    # Distinct keys: nothing to coalesce, everything propagated.
    assert stats["coalesced"] == 0
    assert manager.completed_propagations == 30
    assert stats["depth"] == 0
    assert stats["lag"] == 0
    assert divergent_base_keys(cluster, VIEW) == []
    assert check_view(cluster, VIEW) == []


def test_scrubber_defers_while_outbox_has_backlog():
    """Propagation lag is not divergence: the scrubber must leave a row
    unjudged while its chain's record is still working instead of
    issuing repairs that race it."""
    cluster = build(propagation_delay=Fixed(100.0))
    populate(cluster, 3)  # settles: no backlog yet

    env = cluster.env
    client = cluster.client(coordinator_id=1)
    env.process(client.put("T", 0, {"m": "late"}, 2, 10))
    run_for(cluster, 2.0)  # record appended; its scheduling delay ~100 ms
    assert cluster.view_manager.pending_propagations == 1

    scrubber = cluster.start_scrubber(interval=5.0)
    run_for(cluster, 30.0)  # several rounds inside the backlog window
    assert scrubber.metrics.rows_skipped_in_flight >= 1
    assert scrubber.metrics.divergences_found == 0
    assert scrubber.metrics.repairs_applied == 0

    scrubber.stop()
    cluster.run_until_idle()
    assert cluster.view_manager.pending_propagations == 0
    assert divergent_base_keys(cluster, VIEW) == []


def test_outbox_stats_shape():
    cluster = build()
    populate(cluster, 2)
    stats = cluster.view_manager.outbox_stats()
    assert set(stats) == {"appended", "coalesced", "coalesce_ratio",
                          "depth", "max_depth", "lag", "folded",
                          "hot_keys", "per_node"}
    assert set(stats["per_node"]) == {0, 1, 2, 3}
    assert stats["appended"] >= 2
    assert stats["depth"] == 0
    assert stats["folded"] == 0
    # Hot-key audit: every append is attributed to its (view, key) chain.
    assert stats["hot_keys"]
    assert sum(entry["appends"] for entry in stats["hot_keys"]) <= \
        stats["appended"]
    assert all(entry["view"] == VIEW.name for entry in stats["hot_keys"])
    per_node = stats["per_node"][0]
    assert set(per_node) == {"appended", "coalesced", "depth", "max_depth",
                             "lag"}


def _bare_outbox():
    """A NodeOutbox, the records it handed over to be started, an
    appender for base row 0 (which takes the token a light record's Put
    would have) and a finisher (``done``)."""
    env = Environment()
    started = []
    outbox = NodeOutbox(env, node_id=0, capacity=8)

    def append(heavy=False, **values):
        if not heavy:
            outbox.backpressure.acquire()
        record, starts = outbox.append(VIEW, "T", 0, values,
                                       100 + outbox.appended, (None, None),
                                       env.event(), heavy)
        if starts:
            started.append(record)
        return record

    def done(record):
        following = outbox.done(record)
        if following is not None:
            started.append(following)
    return outbox, started, append, done


def test_chain_records_start_one_at_a_time_in_seq_order():
    """A chain's first record starts on append; later ones (view-key
    moves here: distinct destinations, so nothing coalesces) start one
    per ``done``, oldest first — including one appended between a
    ``done`` and its successor finishing."""
    outbox, started, append, done = _bare_outbox()
    first, second, third = append(vk="a"), append(vk="b"), append(vk="c")
    assert started == [first]
    done(first)
    assert started == [first, second]
    fourth = append(vk="d")
    done(second)
    done(third)
    assert started == [first, second, third, fourth]
    done(fourth)
    assert outbox.depth == 0
    # The chain is free again: the next record starts at once.
    assert append(vk="e") is started[-1]


def test_superseded_parked_records_never_start():
    """A parked record coalesced into a newer one is skipped; the
    started record is no coalesce target, whatever arrives behind it."""
    outbox, started, append, done = _bare_outbox()
    first = append(m="v0")
    second, third = append(m="v1"), append(m="v2")
    assert second.superseded and not first.superseded
    assert outbox.coalesced == 1
    done(first)
    assert started == [first, third]
    done(third)
    assert outbox.depth == 0 and len(started) == 2


def test_heavy_records_fold_into_one_survivor_without_tokens():
    """A heavy record rides on the started one while its window is
    open, and supersedes the parked one after — view-key moves
    included, which a light record never coalesces.  None of them holds
    a token; the survivors know they cannot replay what they absorbed
    and date from the oldest update they stand for."""
    outbox, started, append, done = _bare_outbox()
    env = outbox.env
    first = append(heavy=True, vk="a")
    assert started == [first] and first.open and not first.folded
    rider = append(heavy=True, vk="b")
    assert rider.superseded and first.riders == [rider.completion]
    assert first.folded
    first.open = False                  # whoever runs it starts working
    env.run(until=5.0)
    parked = append(heavy=True, vk="c")
    env.run(until=9.0)
    survivor = append(heavy=True, vk="d")
    assert parked.superseded and not survivor.superseded
    assert survivor.folded and survivor.appended_at == 5.0
    assert survivor.riders == [parked.completion]
    assert (outbox.coalesced, outbox.folded) == (2, 2)
    assert (outbox.depth, outbox.token_free) == (0, 2)
    assert outbox.backpressure.tokens == 8
    done(first)
    assert started == [first, survivor]
    done(survivor)
    assert outbox.depth + outbox.token_free == 0
    # All four seqs resolve with their survivors.
    first.resolve()
    survivor.resolve()
    env.run()
    assert outbox.lag == 0
    assert all(record.completion.triggered
               for record in (first, rider, parked, survivor))


def test_heavy_record_takes_over_a_light_parked_records_place():
    """A chain that turns heavy with light records still parked: the
    heavy record supersedes the newest of them and gives its token
    back; one that subsumes its target stays replayable."""
    outbox, started, append, done = _bare_outbox()
    first, second = append(vk="a"), append(vk="b")
    assert outbox.backpressure.tokens == 6
    heavy = append(heavy=True, vk="c")
    assert second.superseded and heavy.folded
    assert outbox.backpressure.tokens == 7
    assert (outbox.depth, outbox.token_free) == (1, 1)
    same = append(heavy=True, vk="c", m="x")
    assert heavy.superseded and same.folded      # inherited
    assert (outbox.coalesced, outbox.folded) == (2, 1)
    done(first)
    assert started == [first, same]

    other, started, append, _done = _bare_outbox()
    append(m="v0")
    parked = append(heavy=True, m="v1")
    refresh = append(heavy=True, m="v2")
    assert parked.superseded and not refresh.folded
    assert (other.coalesced, other.folded) == (1, 0)


def test_chain_order_survives_busy_consumers_end_to_end():
    """Three view-key moves of one row through one coordinator whose two
    workers are busy when the first two arrive: the third is appended
    while the first is running and the second is parked behind it.
    Every move must propagate, in order."""
    cluster = build(propagation_delay=Fixed(10.0))
    env = cluster.env
    client = cluster.client(coordinator_id=1)

    def put_at(when, key, view_key, ts):
        yield env.timeout(when)
        yield from client.put("T", key, {"vk": view_key}, 2, ts)

    # Two fillers occupy the workers until t ~ 13 and t ~ 18; the
    # third move lands between those two finishes.
    env.process(put_at(0.0, 1, "x", 10))
    env.process(put_at(5.0, 2, "y", 11))
    env.process(put_at(6.0, 0, "a", 100))
    env.process(put_at(7.0, 0, "b", 101))
    env.process(put_at(14.0, 0, "c", 102))
    cluster.run_until_idle()

    manager = cluster.view_manager
    assert manager.abandoned_propagations == 0
    assert manager.completed_propagations == 5
    assert divergent_base_keys(cluster, VIEW) == []
    assert check_view(cluster, VIEW) == []
    assert list(live_entries(cluster, VIEW)[0]) == ["c"]
