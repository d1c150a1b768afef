"""Heavy/light adaptive maintenance: tracker, folding, RYW.

Unit tests for the pure piece (decayed counters with hysteresis) plus
full-stack tests of folding: a hammered key
promotes, its outbox records fold into one survivor, the survivor
re-drives the row's current state once its window closes, and the view
converges to exactly the eager outcome — while session
read-your-writes holds because riders resolve with their survivor.
"""

import pytest

from repro.cluster import Cluster
from repro.repair import divergent_base_keys
from repro.sim.latency import Fixed
from repro.views import (
    UpdateFrequencyTracker,
    ViewDefinition,
    check_view,
    live_entries,
    skew,
)

from tests.views.conftest import make_config

VIEW = ViewDefinition("V", "T", "vk", ("m",))

ADAPTIVE = dict(skew_adaptive=True)


@pytest.fixture(autouse=True)
def slower_promotion_faster_tick(monkeypatch):
    """The policy these tests were written against (the constants are
    the values E5 is measured under)."""
    monkeypatch.setattr(skew, "PROMOTE_THRESHOLD", 3.0)
    monkeypatch.setattr(skew, "DEMOTE_THRESHOLD", 1.5)
    monkeypatch.setattr(skew, "DECAY_HALF_LIFE", 400.0)
    monkeypatch.setattr(skew, "FOLD_INTERVAL", 10.0)


def build(**overrides):
    cluster = Cluster(make_config(**overrides))
    cluster.create_table("T")
    cluster.create_view(VIEW)
    return cluster


def drive(cluster, puts, *, coordinator_id=1, w=2):
    def workload():
        client = cluster.client(coordinator_id=coordinator_id)
        for key, values, ts in puts:
            yield from client.put("T", key, values, w, ts)
    process = cluster.env.process(workload())
    cluster.env.run(until=process)
    cluster.run_until_idle()


# -- UpdateFrequencyTracker ---------------------------------------------------


def test_tracker_promotes_at_threshold():
    tracker = UpdateFrequencyTracker(3.0, 1.0, half_life=100.0)
    chain = ("V", 0)
    assert tracker.observe(chain, 0.0) == 1.0
    assert not tracker.is_heavy(chain, 0.0)
    tracker.observe(chain, 0.0)
    tracker.observe(chain, 0.0)  # decayed count hits 3.0
    assert tracker.is_heavy(chain, 0.0)
    assert tracker.promotions == 1
    assert tracker.heavy_count == 1


def test_tracker_hysteresis_band():
    """Between demote and promote thresholds the classification sticks."""
    tracker = UpdateFrequencyTracker(4.0, 2.0, half_life=100.0)
    chain = ("V", 0)
    for _ in range(4):
        tracker.observe(chain, 0.0)
    assert tracker.is_heavy(chain, 0.0)
    # One half-life halves the count to 2.0 — inside the band: still
    # heavy.  A cold chain at 2.0 would not have been promoted.
    assert tracker.is_heavy(chain, 100.0)
    other = ("V", 1)
    tracker.observe(other, 100.0)
    tracker.observe(other, 100.0)
    assert not tracker.is_heavy(other, 100.0)
    # Two more half-lives decay below 2.0: demoted.
    assert not tracker.is_heavy(chain, 300.0)
    assert tracker.demotions == 1
    assert tracker.heavy_count == 0


def test_tracker_decay_is_half_life_exact():
    tracker = UpdateFrequencyTracker(100.0, 1.0, half_life=50.0)
    chain = ("V", "k")
    tracker.observe(chain, 0.0)
    assert tracker.observe(chain, 50.0) == pytest.approx(1.5)
    assert tracker.observe(chain, 100.0) == pytest.approx(1.75)


def test_tracker_rejects_bad_parameters():
    with pytest.raises(ValueError):
        UpdateFrequencyTracker(1.0, 2.0, half_life=10.0)
    with pytest.raises(ValueError):
        UpdateFrequencyTracker(2.0, 1.0, half_life=0.0)


# -- folding through the full stack --------------------------------------------


def test_hot_chain_folds_and_flushes_to_eager_state():
    """A hammered key promotes, folds, and its survivors converge the
    view to exactly the last write — zero divergence, full accounting."""
    cluster = build(**ADAPTIVE)
    puts = [(0, {"vk": f"g{i % 3}", "m": f"v{i}"}, 100 + i)
            for i in range(30)]
    puts += [(k, {"vk": "cold", "m": f"c{k}"}, 1000 + k)
             for k in range(1, 4)]
    drive(cluster, puts)

    manager = cluster.view_manager
    stats = manager.outbox_stats()
    assert manager.skew_stats()["promotions"] >= 1
    # Folded records are coalesced records: each resolved with the
    # survivor that absorbed it, and every survivor completed.
    assert 0 < stats["folded"] <= stats["coalesced"]
    assert stats["appended"] - stats["coalesced"] == \
        manager.completed_propagations
    assert manager.abandoned_propagations == 0
    assert manager.pending_propagations == 0
    assert divergent_base_keys(cluster, VIEW) == []
    assert check_view(cluster, VIEW) == []
    live = live_entries(cluster, VIEW)
    assert list(live[0]) == ["g2"]  # i=29 -> g2
    assert live[0]["g2"].cells["m"].value == "v29"
    # Cold keys stayed on the eager path.
    assert list(live[1]) == ["cold"]


def test_fold_skips_intermediate_stale_rows():
    """Folded view-key transitions never materialize intermediate rows:
    the survivor re-propagates only the current base state."""
    from repro.views import collect_entries

    cluster = build(**ADAPTIVE)
    drive(cluster, [(0, {"vk": f"t{i}", "m": f"v{i}"}, 100 + i)
                    for i in range(12)])
    assert cluster.view_manager.outbox_stats()["folded"] > 0
    entries = collect_entries(cluster, VIEW)[0]
    # Eager would have written all 12 destinations; folding skipped the
    # transitions that were superseded before their survivor ran.
    assert "t11" in entries
    assert len(entries) < 12
    assert check_view(cluster, VIEW) == []


def test_read_your_writes_through_fold():
    """A session view read right after a folded Put must observe it:
    the Put's record resolves with the survivor it folded into, so the
    barrier holds the read until that one has written the view."""
    cluster = build(**ADAPTIVE)
    # Promote the chain first so the session Put itself folds.
    drive(cluster, [(0, {"vk": f"g{i % 2}", "m": f"w{i}"}, 100 + i)
                    for i in range(10)])
    manager = cluster.view_manager
    folded = manager.outbox_stats()["folded"]
    assert folded > 0

    client = cluster.sync_client(coordinator_id=1)
    client.begin_session()
    client.put("T", 0, {"vk": "mine", "m": "session-write"}, w=2,
               timestamp=5000)
    # No settle: the read runs while the Put's window is still open.
    assert manager.pending_propagations == 1
    results = client.get_view("V", "mine", ("m",), r=2)
    client.end_session()
    rows = {res.base_key: res.values["m"][0] for res in results}
    assert rows == {0: "session-write"}
    cluster.run_until_idle()
    assert divergent_base_keys(cluster, VIEW) == []


def test_disabled_service_is_inert():
    """Default config: nothing heavy, no folding."""
    cluster = build()
    skew = cluster.view_manager.skew
    assert not skew.enabled
    drive(cluster, [(0, {"vk": f"g{i}", "m": f"v{i}"}, 100 + i)
                    for i in range(10)])
    assert not skew.observe(1, VIEW, 0)
    assert skew.heavy_keys == 0
    stats = cluster.view_manager.outbox_stats()
    assert stats["folded"] == 0 and stats["coalesced"] == 0
    assert cluster.view_manager.skew_stats()["folded_records"] == 0
    assert check_view(cluster, VIEW) == []


def test_skew_stats_shape():
    cluster = build(**ADAPTIVE)
    stats = cluster.view_manager.skew_stats()
    expected = {"enabled", "folded_records", "heavy_keys", "promotions",
                "demotions"}
    assert set(stats) == expected
    assert stats["enabled"] is True


def test_light_record_behind_another_coordinators_fold_is_not_stranded():
    """One base row written through two coordinators, every Put moving
    the view key: node 1 hammers it (heavy there), node 2 writes it
    once (light there).  Node 2's Get sees a view key node 1 folds
    away, so the row its record is waiting for is one no propagation
    will ever write; it must not sleep on its round budget for it.

    The timeline (fixed latencies, 8 ms scheduling delay): node 1
    writes h0..h9 from t = 0, pauses, writes h10..h16 from t = 40,
    pauses again and hammers on from t = 57.  Node 2's Put at t = 45.5
    reads one of h10..h16; two Puts of other rows hold node 2's workers
    until t ~ 55, so its record starts working in the second pause and
    retries while the hammer keeps the chain moving.
    """
    cluster = build(**ADAPTIVE, propagation_delay=Fixed(8.0))
    env = cluster.env
    manager = cluster.view_manager
    oldest = [0.0]

    def hammer():
        client = cluster.client(coordinator_id=1)
        for start, count in ((0.0, 10), (40.0, 7), (57.0, 100)):
            yield env.timeout(start - env.now)
            for _ in range(count):
                yield from client.put("T", 0, {"vk": f"h{env.now:.1f}"}, 2)

    def put_at(when, key, view_key):
        client = cluster.client(coordinator_id=2)
        yield env.timeout(when)
        yield from client.put("T", key, {"vk": view_key}, 2)

    def watch():
        while True:
            yield env.timeout(1.0)
            for outbox in manager._outboxes.values():
                for _key, appended_at in outbox.unresolved_for("V"):
                    oldest[0] = max(oldest[0], env.now - appended_at)

    env.process(watch())
    writers = [env.process(hammer()),
               env.process(put_at(45.0, 101, "filler")),
               env.process(put_at(45.0, 102, "filler")),
               env.process(put_at(45.5, 0, "light"))]
    for writer in writers:
        env.run(until=writer)
    while manager.pending_propagations:
        env.run(until=env.now + 2.0)

    trackers = manager.skew._trackers
    assert trackers[1].is_heavy(("V", 0), env.now)
    assert not trackers[2].promotions
    assert manager.outbox_stats()["folded"] > 0
    assert manager.maintainer.metrics.guess_failures > 0  # the seam was hit
    assert manager.abandoned_propagations == 0
    assert oldest[0] <= 6 * skew.FOLD_INTERVAL, oldest[0]
    assert divergent_base_keys(cluster, VIEW) == []
