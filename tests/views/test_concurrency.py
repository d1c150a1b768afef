"""Concurrency tests (Section IV-F): concurrent propagation and reads."""

import pytest

from repro.cluster import Cluster
from repro.repair import ViewScrubber
from repro.sim.kernel import Environment
from repro.views import StaleRowCollector, ViewDefinition, check_view

from tests.views.conftest import make_config

VIEW = ViewDefinition("V", "T", "vk", ("m",))


def build(**overrides):
    cluster = Cluster(make_config(**overrides))
    cluster.create_table("T")
    cluster.create_view(ViewDefinition("V", "T", "vk", ("m",)))
    return cluster


def run_all(cluster, generators):
    env = cluster.env
    processes = [env.process(g) for g in generators]
    for process in processes:
        env.run(until=process)
    cluster.run_until_idle()


@pytest.mark.parametrize("mode", ["locks", "propagators"])
def test_concurrent_view_key_updates_same_row(mode):
    """Example 2's race, through the full stack: two clients reassign the
    same base row concurrently.  Both concurrency-control options must
    produce a single live row at the larger-timestamp key."""
    cluster = build(propagation_concurrency=mode)
    setup = cluster.sync_client()
    setup.put("T", "k", {"vk": "kmsalem", "m": "open"}, w=3)
    setup.settle()
    a = cluster.client()
    b = cluster.client()
    run_all(cluster, [
        a.put("T", "k", {"vk": "rliu"}, 2, 1000),
        b.put("T", "k", {"vk": "cjin"}, 2, 2000),
    ])
    assert check_view(cluster, VIEW) == [], mode
    reader = cluster.sync_client()
    assert [r["m"] for r in reader.get_view("V", "cjin", ["m"])] == ["open"]
    assert reader.get_view("V", "rliu", ["m"]) == []
    assert reader.get_view("V", "kmsalem", ["m"]) == []


@pytest.mark.parametrize("mode", ["locks", "propagators"])
def test_concurrent_first_inserts_same_row(mode):
    """Two clients write the very first view key of a row concurrently."""
    cluster = build(propagation_concurrency=mode)
    a = cluster.client()
    b = cluster.client()
    run_all(cluster, [
        a.put("T", "k", {"vk": "early"}, 2, 100),
        b.put("T", "k", {"vk": "late"}, 2, 200),
    ])
    assert check_view(cluster, VIEW) == [], mode
    reader = cluster.sync_client()
    assert [r.base_key for r in reader.get_view("V", "late", ["B"])] == ["k"]
    assert reader.get_view("V", "early", ["B"]) == []


@pytest.mark.parametrize("mode", ["locks", "propagators"])
def test_concurrent_materialized_updates_same_row(mode):
    cluster = build(propagation_concurrency=mode)
    setup = cluster.sync_client()
    setup.put("T", "k", {"vk": "a"}, w=3)
    setup.settle()
    clients = [cluster.client() for _ in range(4)]
    run_all(cluster, [
        client.put("T", "k", {"m": f"v{i}"}, 2, 1000 + i)
        for i, client in enumerate(clients)
    ])
    assert check_view(cluster, VIEW) == [], mode
    reader = cluster.sync_client()
    assert [r["m"] for r in reader.get_view("V", "a", ["m"])] == ["v3"]


@pytest.mark.parametrize("mode", ["locks", "propagators"])
def test_concurrent_view_key_and_materialized_update(mode):
    cluster = build(propagation_concurrency=mode)
    setup = cluster.sync_client()
    setup.put("T", "k", {"vk": "a", "m": "old"}, w=3)
    setup.settle()
    x = cluster.client()
    y = cluster.client()
    run_all(cluster, [
        x.put("T", "k", {"vk": "b"}, 2, 5000),
        y.put("T", "k", {"m": "new"}, 2, 6000),
    ])
    assert check_view(cluster, VIEW) == [], mode
    reader = cluster.sync_client()
    assert [r["m"] for r in reader.get_view("V", "b", ["m"])] == ["new"]


@pytest.mark.parametrize("mode", ["locks", "propagators"])
def test_storm_of_updates_many_rows(mode):
    """A burst across rows and clients converges to a valid view."""
    cluster = build(propagation_concurrency=mode)
    clients = [cluster.client() for _ in range(6)]
    generators = []
    for i, client in enumerate(clients):
        for j in range(5):
            key = f"k{j}"
            generators.append(client.put(
                "T", key, {"vk": f"g{(i + j) % 3}", "m": i * 10 + j},
                2, (i * 5 + j) * 100))
    run_all(cluster, generators)
    assert check_view(cluster, VIEW) == [], mode


def test_view_get_never_sees_half_initialized_rows():
    """Section IV-F: a reader polling during view-key moves must never
    observe a half-initialized row (created but not yet copied into).

    Note the guarantee is per-Get: scanning several view keys with
    separate Gets is not atomic, so the same base row may legitimately
    appear under two keys across *successive* Gets (that is exactly the
    mutual-consistency caveat of Section IV); what must never happen is a
    returned row missing its materialized payload.
    """
    cluster = build(propagation_concurrency="locks")
    setup = cluster.sync_client()
    setup.put("T", "k", {"vk": "a", "m": "payload"}, w=3)
    setup.settle()
    writer = cluster.client()
    reader = cluster.client()
    env = cluster.env
    observations = []

    def write_loop():
        keys = ["b", "c", "d", "e"]
        for i, key in enumerate(keys):
            yield from writer.put("T", "k", {"vk": key}, 2)
            yield env.timeout(0.3)

    def read_loop():
        for _ in range(60):
            for view_key in ("a", "b", "c", "d", "e"):
                rows = yield from reader.get_view("V", view_key, ["m"], r=2)
                # Per-Get guarantee: at most one live row per base key.
                assert len(rows) <= 1
                observations.extend(
                    (view_key, r.base_key, r["m"]) for r in rows)
            yield env.timeout(0.2)

    wp = env.process(write_loop())
    rp = env.process(read_loop())
    env.run(until=wp)
    env.run(until=rp)
    cluster.run_until_idle()
    assert observations, "reader never saw the row at all"
    for _view_key, base_key, payload in observations:
        assert base_key == "k"
        assert payload == "payload", "half-initialized row observed"
    assert check_view(cluster, VIEW) == []


def test_no_concurrency_control_is_used_when_rows_differ():
    """Updates to different base rows never contend (Section IV-F: their
    view-row sets are disjoint)."""
    cluster = build(propagation_concurrency="locks")
    clients = [cluster.client() for _ in range(8)]
    run_all(cluster, [
        client.put("T", f"row{i}", {"vk": "shared-group"}, 2)
        for i, client in enumerate(clients)
    ])
    manager = cluster.view_manager
    assert manager.locks.contentions == 0
    reader = cluster.sync_client()
    rows = reader.get_view("V", "shared-group", ["B"])
    assert len(rows) == 8
    assert check_view(cluster, VIEW) == []


def test_propagator_assignment_is_stable_per_key():
    manager = build(propagation_concurrency="propagators").view_manager
    for key in range(30):
        assert manager.propagator_for("V", key) == manager.propagator_for(
            "V", key)


def test_propagator_jobs_complete():
    cluster = build(propagation_concurrency="propagators")
    client = cluster.sync_client()
    for i in range(5):
        client.put("T", "k", {"vk": f"g{i}"}, w=2)
    client.settle()
    manager = cluster.view_manager
    assert manager.locks.active_locks == 0
    assert manager.completed_propagations >= 1
    assert manager.pending_propagations == 0
    assert check_view(cluster, VIEW) == []


def cluster_and_owner():
    cluster = build(propagation_concurrency="propagators")
    owner = cluster.view_manager.propagator_for("V", "k")
    remote = next(node.node_id for node in cluster.nodes
                  if node.node_id != owner)
    return cluster, owner, remote


def serialized(cluster, node_id, job):
    """``ViewManager.serialized`` on row ``k`` of ``V``, called from
    node ``node_id``'s coordinator: a generator returning the job's
    result."""
    manager = cluster.view_manager
    return manager.serialized(cluster.coordinator(node_id),
                              manager.view("V"), "k", job)


def timed_job(env, log, name, length=5.0):
    def job(coordinator, turn):
        log.append((name, "start", env.now, coordinator.node.node_id))
        yield env.timeout(length)
        log.append((name, "end", env.now, coordinator.node.node_id))
        return name, turn
    return job


def test_propagator_runs_a_rows_jobs_one_at_a_time_in_submit_order():
    """The second job is submitted from the owner itself, so it has no
    hop and reaches the propagator before the first: it still waits for
    the first to finish."""
    cluster, owner, remote = cluster_and_owner()
    env = cluster.env
    log = []
    first = env.process(serialized(cluster, remote,
                                   timed_job(env, log, "first")))
    second = env.process(serialized(cluster, owner,
                                    timed_job(env, log, "second")))
    env.run(until=second)
    assert first.value == ("first", 1) and second.value == ("second", 2)
    assert [(name, phase) for name, phase, _, _ in log] == [
        ("first", "start"), ("first", "end"),
        ("second", "start"), ("second", "end")]
    assert log[0][2] > 0.0  # the remote submit paid its hop
    assert log[2][2] == log[1][2]  # handed on the instant the first ends
    assert {node for _, _, _, node in log} == {owner}
    assert cluster.view_manager.locks.active_locks == 0


def test_a_failing_propagator_job_fails_only_its_own_caller():
    cluster, owner, _remote = cluster_and_owner()
    env = cluster.env
    log = []

    def broken(coordinator, turn):
        yield env.timeout(1.0)
        raise RuntimeError("job failed")

    outcomes = []

    def wait(job):
        try:
            outcomes.append(("ok", (yield from serialized(cluster, owner,
                                                          job))))
        except RuntimeError as exc:
            outcomes.append(("failed", str(exc)))

    failing = env.process(wait(broken))
    following = env.process(wait(timed_job(env, log, "next")))
    env.run(until=failing)
    env.run(until=following)
    assert outcomes == [("failed", "job failed"), ("ok", ("next", 2))]
    assert log[0][:3] == ("next", "start", 1.0)
    assert cluster.view_manager.locks.active_locks == 0


def test_a_propagator_job_waits_for_its_owner_to_recover():
    cluster, owner, remote = cluster_and_owner()
    env = cluster.env
    log = []
    cluster.fail_node(owner)
    done = env.process(serialized(cluster, remote,
                                  timed_job(env, log, "job")))
    env.run(until=env.now + 50.0)
    assert log == [] and not done.triggered
    cluster.recover_node(owner)
    recovered_at = env.now
    env.run(until=done)
    assert log[0][1] == "start" and log[0][2] >= recovered_at


def test_a_propagator_job_holds_its_rows_lock_while_it_runs():
    """The propagators queue on the manager's lock service, so the
    no-leaked-locks invariant covers them too."""
    cluster, owner, _remote = cluster_and_owner()
    env = cluster.env
    locks = cluster.view_manager.locks
    held = []

    def job(coordinator, turn):
        held.append(locks.active_locks)
        yield env.timeout(1.0)

    env.run(until=env.process(serialized(cluster, owner, job)))
    assert held == [1]
    assert locks.active_locks == 0


def test_chain_jobs_gc_passes_and_scrub_rounds_start_no_process(monkeypatch):
    """A propagators-mode chain job, a GC pass and a scrub round run in
    the process that waits for them: none starts a helper process."""
    cluster, owner, remote = cluster_and_owner()
    env = cluster.env
    client = cluster.sync_client()
    for i in range(3):
        client.put("T", f"k{i}", {"vk": f"g{i}", "m": i}, w=3)
        client.put("T", f"k{i}", {"vk": f"h{i}"}, w=3)
    client.settle()
    view = cluster.view_manager.view("V")
    scrubber = ViewScrubber(cluster, ["V"], interval=5.0)
    collector = StaleRowCollector(cluster, ["V"], interval=5.0,
                                  horizon_ms=0.0)
    chain_job = env.process(serialized(
        cluster, remote, timed_job(env, [], "job", length=1.0)))
    started = []
    real = Environment.process

    def counting(self, generator, name=""):
        started.append(name or getattr(generator, "__name__", "?"))
        return real(self, generator, name)

    monkeypatch.setattr(Environment, "process", counting)
    env.run(until=chain_job)
    assert started == [], "chain job"
    env.run(until=env.now + 12.0)
    scrubber.stop()
    collector.stop()
    assert scrubber.metrics.rounds >= 1 and collector.passes >= 1
    assert collector.total.base_rows_examined >= 3
    assert started == [], "GC pass or scrub round"
    assert check_view(cluster, view) == []


@pytest.mark.parametrize("mode", ["locks", "propagators"])
def test_a_hot_rows_lock_counters_count_every_job(mode):
    """Both mechanisms queue on the row's lock service, so both count:
    six clients moving one row's view key three times each contend for
    it, and every job the chain numbered is one acquisition."""
    cluster = build(propagation_concurrency=mode)

    def three_puts(client, i):
        for j in range(3):
            yield from client.put("T", "k", {"vk": f"g{i}-{j}"}, 2)

    run_all(cluster, [three_puts(cluster.client(), i) for i in range(6)])
    manager = cluster.view_manager
    stats = manager.locks.stats()
    (turns,), _ = manager.peek_sequencer([manager.view("V")], "k")
    assert stats["acquisitions"] == turns >= 6
    assert stats["contentions"] >= 1
    assert stats["wait_time_total"] > 0.0
    assert stats["max_queue_depth"] >= 1
    assert check_view(cluster, VIEW) == []
