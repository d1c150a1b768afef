"""Edge cases for view backfill and multi-view interactions.

``ViewManager.backfill`` is the scrubber's row loop over the rows present
when the view is created (``repro.repair.scheduler.load_view``); it
returns that loop's ``ScrubMetrics``.
"""

import random

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.repair import divergent_base_keys
from repro.views import ViewDefinition, check_view

from tests.views.conftest import make_config


def build():
    cluster = Cluster(make_config())
    cluster.create_table("T")
    return cluster, cluster.sync_client()


def backfill(cluster, name):
    process = cluster.env.process(cluster.backfill(name))
    metrics = cluster.env.run(until=process)
    cluster.run_until_idle()
    return metrics


def test_backfill_empty_table():
    cluster, _client = build()
    cluster.create_view(ViewDefinition("V", "T", "vk"))
    metrics = backfill(cluster, "V")
    assert metrics.rows_scanned == 0
    assert metrics.repairs_applied == 0


def test_backfill_skips_rows_without_view_key():
    cluster, client = build()
    client.put("T", 1, {"vk": "a"}, w=3)
    client.put("T", 2, {"other": "x"}, w=3)
    client.settle()
    view = ViewDefinition("LATE", "T", "vk")
    cluster.create_view(view)
    metrics = backfill(cluster, "LATE")
    # Both rows are verified; only the one with a view key needs a row.
    assert (metrics.rows_scanned, metrics.repairs_applied) == (2, 1)
    assert [r.base_key for r in client.get_view("LATE", "a", ["B"])] == [1]
    assert check_view(cluster, view) == []


def test_backfill_with_materialized_columns_and_tombstones():
    cluster, client = build()
    client.put("T", 1, {"vk": "a", "m": "x"}, w=3)
    client.put("T", 1, {"m": None}, w=3)  # tombstoned materialized cell
    client.put("T", 2, {"vk": "a", "m": "y"}, w=3)
    client.settle()
    view = ViewDefinition("LATE", "T", "vk", ("m",))
    cluster.create_view(view)
    assert backfill(cluster, "LATE").repairs_applied == 2
    rows = {r.base_key: r["m"] for r in client.get_view("LATE", "a", ["m"])}
    assert rows == {1: None, 2: "y"}
    assert check_view(cluster, view) == []


def test_backfill_with_predicate():
    cluster, client = build()
    client.put("T", 1, {"status": "open"}, w=3)
    client.put("T", 2, {"status": "closed"}, w=3)
    client.settle()
    view = ViewDefinition("OPEN", "T", "status",
                          key_predicate=lambda s: s == "open")
    cluster.create_view(view)
    backfill(cluster, "OPEN")
    assert [r.base_key for r in client.get_view("OPEN", "open", ["B"])] == [1]
    assert client.get_view("OPEN", "closed", ["B"]) == []


def test_backfill_then_incremental_updates_compose():
    cluster, client = build()
    for i in range(5):
        client.put("T", i, {"vk": "old", "m": i}, w=3)
    client.settle()
    view = ViewDefinition("LATE", "T", "vk", ("m",))
    cluster.create_view(view)
    backfill(cluster, "LATE")
    # Incremental maintenance continues from the backfilled state.
    client.put("T", 0, {"vk": "new"})
    client.put("T", 1, {"m": 100})
    client.settle()
    old_rows = {r.base_key: r["m"]
                for r in client.get_view("LATE", "old", ["m"])}
    assert old_rows == {1: 100, 2: 2, 3: 3, 4: 4}
    assert [r["m"] for r in client.get_view("LATE", "new", ["m"])] == [0]
    assert check_view(cluster, view) == []


def test_the_load_waits_out_an_outage_then_loads_the_row(monkeypatch):
    """Every replica of key 2 fails as the load reaches it: the load
    keeps key 2 pending, backs off while the cluster is degraded, and
    loads it once the replicas are back."""
    from repro.repair import scheduler

    cluster, client = build()
    client.put("T", 1, {"vk": "a"}, w=3)
    client.put("T", 2, {"vk": "b"}, w=3)
    client.settle()
    view = ViewDefinition("LATE", "T", "vk")
    cluster.create_view(view)
    doomed = [node.node_id for node in cluster.replicas_for("T", 2)]
    env = cluster.env
    verify_row = scheduler.verify_row
    outage = {}

    def revive():
        yield env.timeout(500.0)
        for node_id in doomed:
            cluster.recover_node(node_id)
        outage["over"] = env.now

    def verify_in_outage(coordinator, view, key, quorum, live_keys):
        if key == 2 and not outage:
            for node_id in doomed:
                cluster.fail_node(node_id)
            outage["from"] = env.now
            env.process(revive())
        return (yield from verify_row(coordinator, view, key, quorum,
                                      live_keys))

    monkeypatch.setattr(scheduler, "verify_row", verify_in_outage)
    process = env.process(cluster.backfill("LATE"))
    metrics = env.run(until=process)
    assert env.now > outage["over"]
    assert metrics.rows_skipped_unavailable >= 1
    assert metrics.backoff_rounds >= 1
    assert metrics.repairs_applied == 2
    cluster.run_until_idle()
    assert [r.base_key for r in client.get_view("LATE", "a", ["B"])] == [1]
    assert [r.base_key for r in client.get_view("LATE", "b", ["B"])] == [2]
    assert check_view(cluster, view) == []


def test_a_row_written_during_the_load_is_read_whole():
    """A Put made while the view loads, on a row the load has not
    reached, is its chain's first job, which writes the whole row (one
    majority Get of the base columns the Put does not carry): a session
    read right after it sees the row under its new view key with the
    materialized cell the Put did not write."""
    cluster, client = build()
    for i in range(64):
        client.put("T", i, {"vk": "a", "m": i}, w=3)
    client.settle()
    cluster.create_view(ViewDefinition("LATE", "T", "vk", ("m",)))
    load = cluster.env.process(cluster.backfill("LATE"))
    last = max(range(64), key=repr)  # the row the load reaches last
    client.begin_session()
    client.put("T", last, {"vk": "b"})
    rows = client.get_view("LATE", "b", ["m"])
    assert not load.triggered
    assert [(r.base_key, r["m"]) for r in rows] == [(last, last)]
    cluster.env.run(until=load)


def test_a_materialized_only_first_put_parks_the_whole_row():
    """A row that holds ``p`` but no view key when the view is created
    needs no view row, so the load runs no job on its chain.  A Put of
    ``m`` alone is then the chain's first job: it parks ``m`` and the
    base row's ``p`` on the NULL anchor, and the Put that later gives
    the row a view key copies both.  (Parking ``m`` alone left the view
    row without ``p``.)"""
    cluster, client = build()
    client.put("T", 1, {"p": "x"}, w=3)
    client.settle()
    view = ViewDefinition("LATE", "T", "vk", ("m", "p"))
    cluster.create_view(view)
    metrics = backfill(cluster, "LATE")
    assert (metrics.rows_scanned, metrics.repairs_applied) == (1, 0)
    client.put("T", 1, {"m": "y"}, w=3)
    client.settle()
    client.put("T", 1, {"vk": "a"}, w=3)
    client.settle()
    assert check_view(cluster, view) == []
    rows = client.get_view("LATE", "a", ["m", "p"])
    assert [(r.base_key, r["m"], r["p"]) for r in rows] == [(1, "y", "x")]


def test_a_first_turn_cut_by_a_quorum_error_retries_the_whole_row(
        monkeypatch):
    """A row holds ``p`` and no view key when the view is created, so the
    load runs no job on its chain, and the Put that gives it a view key
    is the chain's first job (the Put, finding the chain pristine, made
    no Algorithm 1 Get).  Its line-4 Put fails for the one guess of the
    record's first round, the never-written NULL, so the round fails:
    the next round, at turn 2, finishes the cut move and still writes
    ``p``, with no scrubber running.  (Retried without the base read,
    the row entered the view without ``p``.)"""
    from repro.errors import QuorumError
    from repro.views.maintenance import ViewMaintainer

    cluster, client = build()
    client.put("T", 1, {"p": "x"}, w=3)
    client.settle()
    view = ViewDefinition("LATE", "T", "vk", ("p",))
    cluster.create_view(view)
    assert backfill(cluster, "LATE").repairs_applied == 0
    real_put = ViewMaintainer._view_put
    failed = []

    def fail_line_4_once(self, coordinator, view_name, view_key, cells):
        if view_key == "a" and not failed:
            failed.append(view_key)
            raise QuorumError("injected", required=2, received=0)
        yield from real_put(self, coordinator, view_name, view_key, cells)

    monkeypatch.setattr(ViewMaintainer, "_view_put", fail_line_4_once)
    client.put("T", 1, {"vk": "a"}, w=3)
    client.settle()
    assert failed == ["a"]
    metrics = cluster.view_manager.maintainer.metrics
    assert (metrics.reads_skipped, metrics.retry_rounds) == (1, 1)
    assert check_view(cluster, view) == []
    assert divergent_base_keys(cluster, view) == []
    rows = client.get_view("LATE", "a", ["p"])
    assert [(r.base_key, r["p"]) for r in rows] == [(1, "x")]


def test_a_load_under_writes_folds_no_record(monkeypatch):
    """With skew off, no record of a loading view is folded: each Put
    made during the load propagates its own delta, and a row the Put
    reaches before the load does enters the view whole."""
    from repro.views.outbox import NodeOutbox

    folded = []
    real_done = NodeOutbox.done

    def done(self, record):
        if record.folded:
            folded.append(record.seq)
        real_done(self, record)

    monkeypatch.setattr(NodeOutbox, "done", done)
    cluster, client = build()
    for i in range(64):
        client.put("T", i, {"vk": "a", "m": i}, w=3)
    client.settle()
    view = ViewDefinition("LATE", "T", "vk", ("m",))
    cluster.create_view(view)
    load = cluster.env.process(cluster.backfill("LATE"))
    for i in range(0, 64, 4):
        client.put("T", i, {"vk": "b"} if i % 8 else {"m": -i})
    assert not load.triggered
    cluster.env.run(until=load)
    cluster.run_until_idle()
    assert folded == []
    assert cluster.view_manager.outbox_stats()["folded"] == 0
    assert check_view(cluster, view) == []
    rows = client.get_view("LATE", "b", ["m"])
    assert sorted((r.base_key, r["m"]) for r in rows) == [
        (i, i) for i in range(4, 64, 8)]


def test_a_plain_put_that_raced_create_view_propagates(monkeypatch):
    """A plain Put already past ``views_affected`` when CREATE VIEW
    registers: here the view's whole load runs between that check and
    the Put's write, so the load verifies the row's old state, and the
    Put has no record.  Once its write acks, the Put re-checks the
    table's views and appends a record for the view that now applies.
    (Without the re-check the view kept the row under ``a``.)"""
    from repro.cluster.coordinator import Coordinator

    cluster, client = build()
    client.put("T", 1, {"vk": "a", "m": "x"}, w=3)
    client.settle()
    view = ViewDefinition("LATE", "T", "vk", ("m",))
    real_put = Coordinator.put

    def put_after_a_whole_load(self, table, key, cells, w):
        if table == "T" and not cluster.has_table("LATE"):
            cluster.create_view(view)
            load = cluster.env.process(cluster.backfill("LATE"))
            assert (yield load).repairs_applied == 1
        yield from real_put(self, table, key, cells, w)

    monkeypatch.setattr(Coordinator, "put", put_after_a_whole_load)
    client.put("T", 1, {"vk": "b"}, w=3)
    client.settle()
    assert divergent_base_keys(cluster, view) == []
    assert check_view(cluster, view) == []
    rows = client.get_view("LATE", "b", ["m"])
    assert [(r.base_key, r["m"]) for r in rows] == [(1, "x")]


WRITERS_VIEW = ViewDefinition("V", "T", "vk", ("m",))


def run_writers_over_a_load(seed):
    """200 rows loaded at W = 3; then 8 clients, two per coordinator,
    Put a random row for 2 s at W = 2 (1 ms think time), alternating a
    view-key write and a materialized-column write.  60 ms in, the view
    is created and loaded.  Returns the cluster and ``marks``: the
    instants the load started and ended and the writers stopped, and
    the client Puts acked from CREATE VIEW on (``puts``)."""
    cluster = Cluster(ClusterConfig(seed=seed))
    cluster.create_table("T")
    loader = cluster.sync_client()
    for k in range(200):
        loader.put("T", k, {"vk": f"g{k % 8}", "m": k}, w=3)
    loader.settle()
    env = cluster.env
    marks = {"writers_end": env.now + 2000.0, "puts": 0}

    def writer(cid):
        rng = random.Random(seed * 100 + cid)
        client = cluster.client(cid % 4)
        n = 0
        while env.now < marks["writers_end"]:
            key = rng.randrange(200)
            values = ({"vk": f"g{rng.randrange(8)}"} if n % 2 == 0
                      else {"m": rng.randrange(10**6)})
            n += 1
            yield from client.put("T", key, values, 2)
            marks["puts"] += "created" in marks
            yield env.timeout(1.0)

    def create_and_load():
        yield env.timeout(60.0)
        marks["created"] = env.now
        cluster.create_view(WRITERS_VIEW)
        yield from cluster.backfill("V")
        marks["loaded"] = env.now

    for cid in range(8):
        env.process(writer(cid))
    env.process(create_and_load())
    cluster.run_until_idle()
    return cluster, marks


@pytest.mark.parametrize("seed", [0, 3])
def test_create_view_under_writes_converges(seed):
    """A view created while clients write: its load ends while they are
    still writing, and once they stop the view matches the base table
    with no propagation abandoned, with no scrubber running.  (Loading
    row by row while those writes replayed their deltas against chains
    not yet loaded, from guesses alone and writing only their own
    columns, left rows divergent and propagations abandoned.  At seed 3,
    a delta appended just after the load guesses a version that a
    re-drive skipped; without the sure entry points a loaded view's
    records take, it was abandoned.)"""
    cluster, marks = run_writers_over_a_load(seed)
    assert marks["loaded"] < marks["writers_end"]
    assert divergent_base_keys(cluster, WRITERS_VIEW) == []
    assert check_view(cluster, WRITERS_VIEW) == []
    assert cluster.view_manager.abandoned_propagations == 0


def test_two_views_one_put_two_propagations():
    cluster, client = build()
    cluster.create_view(ViewDefinition("BY_A", "T", "a"))
    cluster.create_view(ViewDefinition("BY_B", "T", "b"))
    client.put("T", "k", {"a": "x", "b": "y"}, w=2)
    client.settle()
    assert cluster.view_manager.completed_propagations == 2
    assert [r.base_key for r in client.get_view("BY_A", "x", ["B"])] == ["k"]
    assert [r.base_key for r in client.get_view("BY_B", "y", ["B"])] == ["k"]


def test_put_touching_only_one_views_columns():
    cluster, client = build()
    cluster.create_view(ViewDefinition("BY_A", "T", "a"))
    cluster.create_view(ViewDefinition("BY_B", "T", "b"))
    client.put("T", "k", {"a": "x"}, w=2)
    client.settle()
    assert cluster.view_manager.completed_propagations == 1
