"""Exponential, capped, jittered retry backoff (Algorithm 1 retries).

A fixed retry interval re-collides every contending propagation on the
same lock/chain state each round.  The replacement schedule doubles from
``drive.RETRY_BACKOFF`` up to ``drive.RETRY_BACKOFF_CAP`` (constants:
the tests that need other values monkeypatch them)
and jitters each delay into ``[d/2, d)`` from the deterministic
``view-propagation`` RNG stream — so retries spread out, while identical
seeds still replay identically.  A propagation that fails every round
is abandoned after ``drive.MAX_ROUNDS``, and while it sleeps
between rounds it holds none of the node's maintenance workers.
"""

from repro.views import drive

from tests.repair.conftest import build, run_for


def _delays(manager, rounds):
    return [drive._retry_delay(manager, r) for r in rounds]


def test_backoff_is_jittered_within_round_bounds():
    manager = build().view_manager
    base, cap = drive.RETRY_BACKOFF, drive.RETRY_BACKOFF_CAP
    for _ in range(50):
        delay = drive._retry_delay(manager, 1)
        assert base / 2 <= delay < base
    for _ in range(50):
        delay = drive._retry_delay(manager, 100)  # far past the cap
        assert cap / 2 <= delay < cap


def test_backoff_grows_exponentially_until_cap(monkeypatch):
    monkeypatch.setattr(drive, "RETRY_BACKOFF", 1.0)
    manager = build().view_manager
    # Strip the jitter by normalising into the nominal (pre-jitter)
    # delay: delay / jitter_factor is the deterministic schedule.
    nominal = []
    for rounds in range(1, 8):
        delay = drive._retry_delay(manager, rounds)
        # jitter maps d -> d * [0.5, 1.0); recover d's bounds instead of
        # the exact value.
        nominal.append((delay, min(2.0 ** (rounds - 1), 8.0)))
    for delay, expected in nominal:
        assert expected / 2 <= delay < expected
    # Rounds 5+ are all capped at 8.0.
    assert all(4.0 <= delay < 8.0 for delay, expected in nominal[4:])


def test_zero_base_disables_backoff(monkeypatch):
    monkeypatch.setattr(drive, "RETRY_BACKOFF", 0.0)
    manager = build().view_manager
    assert drive._retry_delay(manager, 1) == 0.0
    assert drive._retry_delay(manager, 50) == 0.0


def test_successive_retries_desynchronize():
    """The point of the jitter: two contenders drawing consecutive
    delays for the same round must not sleep identically."""
    manager = build().view_manager
    draws = _delays(manager, [3] * 10)
    assert len(set(draws)) > 1


def test_backoff_is_deterministic_across_identical_clusters():
    first = _delays(build().view_manager, range(1, 11))
    second = _delays(build().view_manager, range(1, 11))
    assert first == second


def test_contending_hot_key_workload_converges(monkeypatch):
    """End-to-end: many same-key writers force guess retries; the
    jittered schedule must still converge the view (and the backoff cap
    bounds each wait)."""
    from repro.views import check_view
    from tests.repair.conftest import VIEW

    monkeypatch.setattr(drive, "RETRY_BACKOFF", 0.2)
    monkeypatch.setattr(drive, "RETRY_BACKOFF_CAP", 2.0)
    cluster = build()
    client = cluster.sync_client()
    for i in range(12):
        client.put("T", "hot", {"vk": f"g{i % 2}", "m": i}, w=2,
                   timestamp=i + 1)
    client.settle()
    assert check_view(cluster, VIEW) == []
    assert cluster.view_manager.abandoned_propagations == 0


def _fail_rounds_for(monkeypatch, cluster, wedged_keys):
    """Every propagation round for a base key in ``wedged_keys`` fails;
    returns the per-key round counter."""
    rounds = {key: 0 for key in wedged_keys}
    real_round = drive._attempt_round

    def attempt_round(manager, coordinator, view, key, *args):
        if key not in rounds:
            result = yield from real_round(manager, coordinator, view, key,
                                           *args)
            return result
        rounds[key] += 1
        yield cluster.env.timeout(0.5)
        return False

    monkeypatch.setattr(drive, "_attempt_round", attempt_round)
    return rounds


def test_round_budget_exhaustion_is_retries_abandoned(monkeypatch):
    monkeypatch.setattr(drive, "MAX_ROUNDS", 6)
    cluster = build()
    rounds = _fail_rounds_for(monkeypatch, cluster, ["k1"])
    client = cluster.sync_client(coordinator_id=1)
    client.put("T", "k1", {"vk": "s1", "m": "p"}, w=2)
    client.settle()
    manager = cluster.view_manager
    assert rounds["k1"] == 6
    assert manager.abandoned_propagations == 1
    (source,) = manager.freshness.sources("V")
    assert source.provenance == "retries-abandoned"


def test_a_record_sleeping_in_backoff_holds_no_worker(monkeypatch):
    """Two records of one node fail every round — as many as the node
    has workers.  A third record, on another chain of the same node,
    still propagates while they are backing off."""
    cluster = build()
    rounds = _fail_rounds_for(monkeypatch, cluster, ["w1", "w2"])
    client = cluster.client(coordinator_id=1)
    for key in ("w1", "w2", "ok"):
        cluster.env.process(client.put("T", key, {"vk": "a"}, 2))
    run_for(cluster, 100.0)
    manager = cluster.view_manager
    assert manager.completed_propagations == 1
    assert manager.abandoned_propagations == 0     # still retrying
    assert min(rounds.values()) >= 2
    assert manager.pending_propagations == 2

    cluster.run_until_idle()
    assert manager.abandoned_propagations == 2
    assert rounds == {"w1": 200, "w2": 200}


def test_guess_refresh_with_every_base_replica_down_is_one_more_failed_round(
        monkeypatch):
    """Every fourth failed round re-reads the guesses from the base
    row's replicas.  With all of them down that read is unavailable — a
    transient shortfall like any failed round, not an error that may
    escape the record's process and abort the run."""
    monkeypatch.setattr(drive, "MAX_ROUNDS", 6)
    cluster = build()
    rounds = _fail_rounds_for(monkeypatch, cluster, ["k1"])
    replicas = {node.node_id for node in cluster.replicas_for("T", "k1")}
    (outsider,) = set(range(cluster.config.nodes)) - replicas
    env = cluster.env
    env.process(cluster.client(coordinator_id=outsider).put(
        "T", "k1", {"vk": "s1"}, 2))
    while rounds["k1"] < 1:        # acked, first round failed
        run_for(cluster, 0.5)
    for node_id in replicas:
        cluster.fail_node(node_id)
    run_for(cluster, 100.0)        # past round 4's refresh, to the budget
    manager = cluster.view_manager
    assert rounds["k1"] == 6
    assert manager.abandoned_propagations == 1
    for node_id in replicas:
        cluster.recover_node(node_id)
    cluster.run_until_idle()
