"""Unit tests for Algorithms 2-3: PropagateUpdate / GetLiveKey.

These drive the maintainer directly (sequential propagation, hand-picked
guesses and orders), covering every case of the Theorem 1 proof plus the
extensions (deletions, multi-column updates, first inserts).
"""

import pytest

from repro.cluster import Cluster
from repro.common import Cell
from repro.errors import PropagationError, QuorumError
from repro.repair import divergent_base_keys
from repro.views import (
    NULL_VIEW_KEY,
    BaseUpdate,
    ReferenceViewModel,
    ViewDefinition,
    ViewKeyGuess,
    check_view,
    collect_entries,
    collect_stale_rows,
)
from repro.views import drive
from repro.views.drive import propagate_with_retries, repropagate_row
from repro.views.read import view_get
from repro.views.versioned import (
    PHASE_LIVE,
    PHASE_STALE,
    TS_SCALE,
    view_timestamp,
)

from tests.views.conftest import DirectDriver, make_config

VIEW = ViewDefinition("V", "B", "vk", ("m",))


@pytest.fixture
def driver():
    cluster = Cluster(make_config())
    cluster.create_table("B")
    cluster.create_table("V")
    return DirectDriver(cluster, VIEW)


def first_insert(driver, key="k", view_key="a", ts=10):
    """Propagate a first view-key write through the pristine NULL anchor."""
    driver.base_put(key, {"vk": view_key}, ts)
    driver.propagate(key, driver.guess(None, -1, virtual=True),
                     {"vk": view_key}, ts)


# ---------------------------------------------------------------------------
# First insert and the NULL anchor
# ---------------------------------------------------------------------------


def test_first_insert_creates_live_row(driver):
    first_insert(driver, view_key="a", ts=10)
    rows = driver.view_row("a")
    assert rows["k"].is_live
    assert rows["k"].base_ts == 10


def test_first_insert_creates_null_anchor_stale_row(driver):
    first_insert(driver, view_key="a", ts=10)
    anchor = driver.view_row(NULL_VIEW_KEY)
    assert not anchor["k"].is_live
    assert anchor["k"].next_key == "a"


def test_structure_valid_after_first_insert(driver):
    first_insert(driver)
    assert check_view(driver.cluster, VIEW) == []


# ---------------------------------------------------------------------------
# Case 1: view-materialized column updates
# ---------------------------------------------------------------------------


def test_materialized_update_lands_on_live_row(driver):
    first_insert(driver, view_key="a", ts=10)
    driver.base_put("k", {"m": "x"}, 20)
    driver.propagate("k", driver.guess("a", 10), {"m": "x"}, 20)
    results = driver.get_view("a", ["m"])
    assert [(r.base_key, r["m"]) for r in results] == [("k", "x")]


def test_materialized_update_older_than_cell_is_noop(driver):
    first_insert(driver, view_key="a", ts=10)
    driver.base_put("k", {"m": "newer"}, 30)
    driver.propagate("k", driver.guess("a", 10), {"m": "newer"}, 30)
    driver.base_put("k", {"m": "older"}, 20)
    driver.propagate("k", driver.guess("a", 10), {"m": "older"}, 20)
    results = driver.get_view("a", ["m"])
    assert results[0]["m"] == "newer"


def test_materialized_update_follows_chain_to_live(driver):
    first_insert(driver, view_key="a", ts=10)
    driver.base_put("k", {"vk": "b"}, 20)
    driver.propagate("k", driver.guess("a", 10), {"vk": "b"}, 20)
    # Propagate a materialized update whose guess is the stale key "a".
    driver.base_put("k", {"m": "x"}, 30)
    driver.propagate("k", driver.guess("a", 10), {"m": "x"}, 30)
    assert driver.get_view("b", ["m"])[0]["m"] == "x"


# ---------------------------------------------------------------------------
# Case 2a: knew is a brand-new view key
# ---------------------------------------------------------------------------


def test_2a_newer_update_moves_live_row_and_copies(driver):
    first_insert(driver, view_key="a", ts=10)
    driver.base_put("k", {"m": "payload"}, 11)
    driver.propagate("k", driver.guess("a", 10), {"m": "payload"}, 11)
    driver.base_put("k", {"vk": "b"}, 20)
    driver.propagate("k", driver.guess("a", 10), {"vk": "b"}, 20)

    assert driver.view_row("b")["k"].is_live
    old = driver.view_row("a")["k"]
    assert not old.is_live and old.next_key == "b"
    # CopyData carried the materialized value to the new live row.
    assert driver.get_view("b", ["m"])[0]["m"] == "payload"
    assert driver.get_view("a", ["m"]) == []
    assert check_view(driver.cluster, VIEW) == []


def test_2a_older_update_becomes_stale_row(driver):
    """An out-of-order older view-key update must not displace the live
    row; it becomes a stale row pointing at it."""
    first_insert(driver, view_key="winner", ts=20)
    driver.base_put("k", {"vk": "loser"}, 10)
    driver.propagate("k", driver.guess(None, -1, virtual=True),
                     {"vk": "loser"}, 10)
    assert driver.view_row("winner")["k"].is_live
    loser = driver.view_row("loser")["k"]
    assert not loser.is_live and loser.next_key == "winner"
    assert check_view(driver.cluster, VIEW) == []


# ---------------------------------------------------------------------------
# Case 2b: knew already exists as a stale key
# ---------------------------------------------------------------------------


def test_2b_older_update_refreshes_stale_row(driver):
    # a(10) -> b(20): "a" is stale.  Now update vk="a" at ts=15 propagates.
    first_insert(driver, view_key="a", ts=10)
    driver.base_put("k", {"vk": "b"}, 20)
    driver.propagate("k", driver.guess("a", 10), {"vk": "b"}, 20)
    driver.base_put("k", {"vk": "a"}, 15)
    driver.propagate("k", driver.guess("b", 20), {"vk": "a"}, 15)

    stale = driver.view_row("a")["k"]
    assert not stale.is_live
    assert stale.next_key == "b"       # still points to the live row
    # Alg. 2 line 8 stamped the stale row with the superseding update's
    # timestamp (20) when "b" took over; the older ts=15 re-put at line 4
    # must NOT disturb it.
    assert stale.base_ts == 20
    assert driver.view_row("b")["k"].is_live
    assert check_view(driver.cluster, VIEW) == []


def test_2b_newer_update_revives_stale_row_to_live(driver):
    # a(10) -> b(20), then vk="a" again at ts=30: "a" becomes live again.
    first_insert(driver, view_key="a", ts=10)
    driver.base_put("k", {"m": "data"}, 12)
    driver.propagate("k", driver.guess("a", 10), {"m": "data"}, 12)
    driver.base_put("k", {"vk": "b"}, 20)
    driver.propagate("k", driver.guess("a", 10), {"vk": "b"}, 20)
    driver.base_put("k", {"vk": "a"}, 30)
    driver.propagate("k", driver.guess("b", 20), {"vk": "a"}, 30)

    revived = driver.view_row("a")["k"]
    assert revived.is_live and revived.base_ts == 30
    old = driver.view_row("b")["k"]
    assert not old.is_live and old.next_key == "a"
    # Materialized data survived two moves.
    assert driver.get_view("a", ["m"])[0]["m"] == "data"
    assert check_view(driver.cluster, VIEW) == []


# ---------------------------------------------------------------------------
# Case 2c: knew is the live key
# ---------------------------------------------------------------------------


def test_2c_same_key_update_refreshes_timestamp(driver):
    first_insert(driver, view_key="a", ts=10)
    driver.base_put("k", {"vk": "a"}, 25)
    driver.propagate("k", driver.guess("a", 10), {"vk": "a"}, 25)
    live = driver.view_row("a")["k"]
    assert live.is_live and live.base_ts == 25
    assert check_view(driver.cluster, VIEW) == []


def test_2c_older_same_key_update_is_noop(driver):
    first_insert(driver, view_key="a", ts=30)
    driver.base_put("k", {"vk": "a"}, 20)
    driver.propagate("k", driver.guess("a", 20), {"vk": "a"}, 20)
    live = driver.view_row("a")["k"]
    assert live.is_live and live.base_ts == 30


# ---------------------------------------------------------------------------
# Deletions (view-key NULL)
# ---------------------------------------------------------------------------


def test_deletion_removes_row_from_view(driver):
    first_insert(driver, view_key="a", ts=10)
    driver.base_put("k", {"vk": None}, 20)
    driver.propagate("k", driver.guess("a", 10), {"vk": None}, 20)
    assert driver.get_view("a", ["m"]) == []
    # The old row is a stale row pointing at the NULL anchor.
    old = driver.view_row("a")["k"]
    assert not old.is_live and old.next_key == NULL_VIEW_KEY
    assert check_view(driver.cluster, VIEW) == []


def test_resurrection_after_deletion_preserves_data(driver):
    first_insert(driver, view_key="a", ts=10)
    driver.base_put("k", {"m": "kept"}, 11)
    driver.propagate("k", driver.guess("a", 10), {"m": "kept"}, 11)
    driver.base_put("k", {"vk": None}, 20)
    driver.propagate("k", driver.guess("a", 10), {"vk": None}, 20)
    driver.base_put("k", {"vk": "c"}, 30)
    driver.propagate("k", driver.guess(None, 20), {"vk": "c"}, 30)
    assert driver.get_view("c", ["m"])[0]["m"] == "kept"
    assert check_view(driver.cluster, VIEW) == []


def test_out_of_order_deletion_is_superseded(driver):
    """Deletion at ts=15 propagates after a newer assignment at ts=20:
    the live row must remain at the newer key."""
    first_insert(driver, view_key="a", ts=10)
    driver.base_put("k", {"vk": "b"}, 20)
    driver.propagate("k", driver.guess("a", 10), {"vk": "b"}, 20)
    driver.base_put("k", {"vk": None}, 15)
    driver.propagate("k", driver.guess("b", 20), {"vk": None}, 15)
    assert driver.view_row("b")["k"].is_live
    anchor = driver.view_row(NULL_VIEW_KEY)["k"]
    assert not anchor.is_live
    assert check_view(driver.cluster, VIEW) == []


# ---------------------------------------------------------------------------
# Guess failures (Algorithm 3)
# ---------------------------------------------------------------------------


def test_unpropagated_guess_fails(driver):
    first_insert(driver, view_key="a", ts=10)
    with pytest.raises(PropagationError):
        driver.propagate("k", driver.guess("never-propagated", 15),
                         {"m": "x"}, 20)


def test_tombstone_guess_requires_anchor_row(driver):
    """A NULL guess written by an unpropagated deletion must fail while no
    anchor row exists, not silently start a fresh chain."""
    # vk=a@10 and its deletion @20 are both in the base, NEITHER
    # propagated, so the view (and the NULL anchor) are empty.
    driver.base_put("k", {"vk": "a"}, 10)
    driver.base_put("k", {"vk": None}, 20)
    with pytest.raises(PropagationError):
        driver.propagate("k", driver.guess(None, 20), {"vk": "c"}, 30)


def test_tombstone_guess_follows_existing_anchor(driver):
    """Once the anchor row exists, a tombstone NULL guess is a valid chain
    entry point: GetLiveKey walks from the anchor to the live row."""
    first_insert(driver, view_key="a", ts=10)
    driver.base_put("k", {"vk": None}, 20)   # deletion, not yet propagated
    driver.base_put("k", {"vk": "c"}, 30)
    driver.propagate("k", driver.guess(None, 20), {"vk": "c"}, 30)
    assert driver.view_row("c")["k"].is_live
    assert not driver.view_row("a")["k"].is_live


def test_pristine_null_guess_succeeds_only_when_nothing_propagated(driver):
    first_insert(driver, view_key="a", ts=10)
    # Now a never-written NULL guess must follow the anchor chain rather
    # than creating a second live row.
    driver.base_put("k", {"vk": "b"}, 20)
    driver.propagate("k", driver.guess(None, -1, virtual=True),
                     {"vk": "b"}, 20)
    assert driver.view_row("b")["k"].is_live
    assert not driver.view_row("a")["k"].is_live
    assert check_view(driver.cluster, VIEW) == []


# ---------------------------------------------------------------------------
# Chain traversal
# ---------------------------------------------------------------------------


def test_long_chain_resolves(driver):
    first_insert(driver, view_key="k0", ts=10)
    for i in range(1, 6):
        driver.base_put("k", {"vk": f"k{i}"}, 10 + i)
        driver.propagate("k", driver.guess(f"k{i-1}", 10 + i - 1),
                         {"vk": f"k{i}"}, 10 + i)
    # Propagate a materialized update using the OLDEST key as the guess:
    # GetLiveKey must walk the whole chain.
    hops_before = driver.maintainer.metrics.chain_hops
    driver.base_put("k", {"m": "x"}, 50)
    driver.propagate("k", driver.guess("k0", 10), {"m": "x"}, 50)
    assert driver.get_view("k5", ["m"])[0]["m"] == "x"
    assert driver.maintainer.metrics.chain_hops - hops_before >= 2
    assert check_view(driver.cluster, VIEW) == []


def test_example_2_both_propagation_orders_converge():
    """Paper Example 2 / Figure 2: two concurrent reassignments of ticket
    2 (kmsalem -> rliu @t1, kmsalem -> cjin @t2, t2 > t1) propagate in
    either order; both produce the Figure 2 structure."""
    for order in ("first-then-second", "second-then-first"):
        cluster = Cluster(make_config())
        cluster.create_table("B")
        cluster.create_table("V")
        driver = DirectDriver(cluster, VIEW)
        first_insert(driver, key=2, view_key="kmsalem", ts=10)
        driver.base_put(2, {"m": "open"}, 11)
        driver.propagate(2, driver.guess("kmsalem", 10), {"m": "open"}, 11)

        # Both clients read "kmsalem" as the old view key before updating.
        driver.base_put(2, {"vk": "rliu"}, 20)
        driver.base_put(2, {"vk": "cjin"}, 30)
        guess = driver.guess("kmsalem", 10)
        if order == "first-then-second":
            driver.propagate(2, guess, {"vk": "rliu"}, 20)
            driver.propagate(2, driver.guess("rliu", 20), {"vk": "cjin"}, 30)
        else:
            driver.propagate(2, guess, {"vk": "cjin"}, 30)
            driver.propagate(2, guess, {"vk": "rliu"}, 20)

        # Figure 2: cjin live with the data; kmsalem and rliu stale.
        assert driver.view_row("cjin")[2].is_live
        assert not driver.view_row("rliu")[2].is_live
        assert not driver.view_row("kmsalem")[2].is_live
        assert driver.get_view("cjin", ["m"])[0]["m"] == "open"
        assert driver.get_view("rliu", ["m"]) == []
        assert driver.get_view("kmsalem", ["m"]) == []
        assert check_view(cluster, VIEW) == [], order


def test_multi_column_put_propagates_together(driver):
    driver.base_put("k", {"vk": "a", "m": "both"}, 10)
    driver.propagate("k", driver.guess(None, -1, virtual=True),
                     {"vk": "a", "m": "both"}, 10)
    result = driver.get_view("a", ["m"])[0]
    assert result["m"] == "both"
    assert check_view(driver.cluster, VIEW) == []


def test_propagation_is_idempotent(driver):
    first_insert(driver, view_key="a", ts=10)
    driver.base_put("k", {"vk": "b", "m": "x"}, 20)
    for _ in range(3):
        driver.propagate("k", driver.guess("a", 10), {"vk": "b", "m": "x"}, 20)
    assert driver.view_row("b")["k"].is_live
    assert driver.get_view("b", ["m"])[0]["m"] == "x"
    assert check_view(driver.cluster, VIEW) == []


# ---------------------------------------------------------------------------
# CopyData rides the chain walk's last Get and the line-4 Put
# ---------------------------------------------------------------------------


def _moved_row(driver):
    """k: vk = a @10 with m = payload @11, ready to move to another key."""
    first_insert(driver, view_key="a", ts=10)
    driver.base_put("k", {"m": "payload"}, 11)
    driver.propagate("k", driver.guess("a", 10), {"m": "payload"}, 11)


def _payload_cluster(**overrides):
    from repro.cluster import ClusterConfig

    cluster = Cluster(ClusterConfig(seed=5, **overrides))
    cluster.create_table("T")
    cluster.create_view(ViewDefinition("V", "T", "sec", ("payload",)))
    return cluster


def _count_one_put(monkeypatch, cluster, client, values):
    """Put ``values`` to ``k`` through ``client`` and drain; returns
    ``(RPCs sent, view-table round kinds, base-table reads)`` for it."""
    from repro.cluster.coordinator import Coordinator

    rounds = []
    for kind in ("scatter_read", "scatter_write"):
        real = getattr(Coordinator, kind)

        def counted(self, table, *args, _kind=kind, _real=real, **kwargs):
            rounds.append((table, _kind))
            return _real(self, table, *args, **kwargs)

        monkeypatch.setattr(Coordinator, kind, counted)
    sent = cluster.network.messages_sent
    client.put("T", "k", values)
    client.settle()
    return (cluster.network.messages_sent - sent,
            sorted(kind for table, kind in rounds if table == "V"),
            rounds.count(("T", "scatter_read")))


def _count_one_move(monkeypatch, mover_is_the_holder: bool, **overrides):
    """Load ``k`` under ``a`` through one coordinator, then move it to
    ``b`` through the same one or another; returns ``(RPCs sent,
    view-table round kinds, base-table reads, a client)`` for the move
    alone."""
    cluster = _payload_cluster(**overrides)
    holder = cluster.sync_client(0)
    mover = holder if mover_is_the_holder else cluster.sync_client(1)
    holder.put("T", "k", {"sec": "a", "payload": "p"})
    holder.settle()
    return (*_count_one_put(monkeypatch, cluster, mover, {"sec": "b"}),
            mover)


@pytest.mark.parametrize("serializer", ["locks", "propagators"])
def test_a_pristine_multi_column_insert_sends_9_rpcs_two_view_rounds(
        monkeypatch, serializer):
    """The first Put of a row, with a view key and a materialized
    column: base Put + the NULL anchor's stale pointer (line 8) + the
    new live row carrying ``payload`` (line 4, with line 12's cell) =
    3 x 3 RPCs, and no view-table Get.  The sequencer peek, answered
    during the coordinator's charge, finds the chain pristine (turn 0),
    so the record will take its first turn, which reads no guess, and
    Algorithm 1's base Get is skipped.  It was 12 while that Get was
    made, and 17 in six rounds while the chain's first job walked to the
    virtual anchor (a majority Get, 2 RPCs) and line 12 was a third view
    Put of its own (3)."""
    cluster = _payload_cluster(propagation_concurrency=serializer)
    client = cluster.sync_client(0)
    sent, view_rounds, base_reads = _count_one_put(
        monkeypatch, cluster, client, {"sec": "a", "payload": "p"})
    assert sent == 9
    assert view_rounds == ["scatter_write", "scatter_write"]
    assert base_reads == 0
    assert cluster.view_manager.maintainer.metrics.reads_skipped == 1
    assert cluster.view_manager.maintainer.metrics.chain_hops == 0
    (row,) = client.get_view("V", "a", ["payload"])
    assert (row.base_key, row["payload"]) == ("k", "p")


@pytest.mark.parametrize("over_data", [True, False])
def test_a_rows_first_view_key_put_reads_the_base_row_only_over_data(
        monkeypatch, over_data):
    """A row's first Put carries only the view key, and its chain is
    pristine either way (the load runs no job on a row with no view
    key), so it makes no Algorithm 1 Get.  On a view created over a
    populated table (``ViewManager.backfill``) the row already holds
    ``payload``, which no record of the view carries: the chain's first
    job makes one majority Get of it (2 RPCs) and writes it with line 4,
    11 RPCs in all.  On a view defined before its data the same Put
    makes no such Get: 9, as a pristine insert.  (14 and 12 while the
    Put made Algorithm 1's Get.)"""
    from repro.cluster import ClusterConfig

    cluster = Cluster(ClusterConfig(seed=5))
    cluster.create_table("T")
    client = cluster.sync_client(0)
    view = ViewDefinition("V", "T", "sec", ("payload",))
    if over_data:
        client.put("T", "k", {"payload": "p"})
        client.settle()
    cluster.create_view(view)
    if over_data:
        cluster.env.run(until=cluster.env.process(
            cluster.backfill("V")))
    sent, view_rounds, base_reads = _count_one_put(
        monkeypatch, cluster, client, {"sec": "a"})
    assert sent == (11 if over_data else 9)
    assert view_rounds == ["scatter_write", "scatter_write"]
    assert base_reads == (1 if over_data else 0)
    (row,) = client.get_view("V", "a", ["payload"])
    assert (row.base_key, row["payload"]) == (
        "k", "p" if over_data else None)


def test_view_key_move_sends_14_rpcs_three_view_rounds(monkeypatch):
    """The cost of one view-key move through the whole stack at default
    config, N = 3, by a coordinator that does not hold the live row (a
    different one made it live): base Get + base Put + stale pointer +
    new live row = 4 x 3 RPCs, and the chain walk (one hop), a majority
    Get that asks two replicas, not three: 14 RPCs in three view rounds.
    It was 17 while the new row was written marked and then unmarked
    (the Init mark, one more Put), and 18 while a Get was broadcast; the
    base Get stays a broadcast because Algorithm 1 wants every replica's
    view-key version.  CopyData has no round of its own (it was a Get
    and a Put: 24 RPCs).

    Links are fixed-delay, so the mover's write cannot overtake its own
    base read on the way to a replica.  On jittered links it can: that
    replica then reports the update's own key ``b`` as its version, the
    newest guess, whose walk fails before the one from ``a`` (16
    RPCs)."""
    from repro.sim.latency import Fixed

    sent, view_rounds, base_reads, client = _count_one_move(
        monkeypatch, mover_is_the_holder=False, replica_link=Fixed(0.06))
    assert sent == 14
    assert view_rounds == ["scatter_read", "scatter_write", "scatter_write"]
    assert base_reads == 1
    (row,) = client.get_view("V", "b", ["payload"])
    assert (row.base_key, row["payload"]) == ("k", "p")
    assert client.get_view("V", "a", ["payload"]) == []


def test_repeat_view_key_move_by_the_same_executor_sends_9_rpcs_two_view_rounds(
        monkeypatch):
    """The coordinator that made the row live moves it again, nobody
    having held the chain in between: base Put + stale pointer + new
    live row = 3 x 3 = 9 RPCs in two view rounds, and no read of the
    view table or the base table at all — the copied payload comes from
    what it wrote, and Algorithm 1's Get, whose guesses only a walk
    would read, is skipped (``views.drive.skips_base_read``).  It was 12
    while that Get was made, and 15 and three view rounds while the
    Init mark cost an unmark."""
    sent, view_rounds, base_reads, client = _count_one_move(
        monkeypatch, mover_is_the_holder=True)
    assert sent == 9
    assert view_rounds == ["scatter_write", "scatter_write"]
    assert base_reads == 0
    (row,) = client.get_view("V", "b", ["payload"])
    assert (row.base_key, row["payload"]) == ("k", "p")
    assert client.get_view("V", "a", ["payload"]) == []


def test_new_row_appears_with_its_copied_cells_and_init_in_one_apply(driver):
    """At every replica the apply that first makes Next visible on the
    new row is already live (a self-pointer at PHASE_LIVE: there is no
    Init mark to clear) and also carries the copied materialized cell,
    and it is sent only after line 8 — the old row's stale pointer —
    has its majority: the new row never appears beside a live old one,
    nor without its data."""
    _moved_row(driver)
    cluster = driver.cluster
    replicas = cluster.replicas_for("V", "b")
    old_replicas = cluster.replicas_for("V", "a")
    first_applies = {}
    stale_when_sent = []
    for replica in replicas:
        real = replica.engine.apply

        def spy(table, key, cells, _node=replica.node_id, _real=real):
            if (table, key) == ("V", "b"):
                first_applies.setdefault(_node, dict(cells))
            return _real(table, key, cells)

        replica.engine.apply = spy

    real_put = driver.maintainer._view_put

    def view_put(coordinator, view_name, view_key, cells):
        if view_key == "b" and not stale_when_sent:
            stale_when_sent.extend(
                replica.node_id for replica in old_replicas
                if replica.engine.read_row("V", "a")[("k", "Next")].value
                == "b")
        yield from real_put(coordinator, view_name, view_key, cells)

    driver.maintainer._view_put = view_put
    driver.base_put("k", {"vk": "b"}, 20)
    driver.propagate("k", driver.guess("a", 10), {"vk": "b"}, 20)

    assert len(stale_when_sent) >= 2            # line 8's majority, maybe all
    assert set(first_applies) == {replica.node_id for replica in replicas}
    for cells in first_applies.values():
        assert set(cells) == {("k", "Next"), ("k", "m")}
        assert cells[("k", "Next")].value == "b"
        assert cells[("k", "Next")].timestamp % TS_SCALE == PHASE_LIVE
        # Verbatim: the value and the *old row's* scaled timestamp.
        assert cells[("k", "m")].value == "payload"
        assert cells[("k", "m")].timestamp < cells[("k", "Next")].timestamp
    assert driver.maintainer.metrics.rows_copied == 1


def test_view_get_racing_a_move_never_sees_the_new_row_without_its_data(
        driver):
    _moved_row(driver)
    env = driver.cluster.env
    seen = []

    def reader():
        from repro.views.read import view_get

        coordinator = driver.cluster.coordinator(1)
        while not seen or seen[-1][0] != "b":
            for view_key in ("a", "b"):
                rows = yield from view_get(coordinator, VIEW, view_key,
                                           ("m",), 2)
                seen.extend((view_key, row["m"]) for row in rows)
            yield env.timeout(0.01)

    driver.base_put("k", {"vk": "b"}, 20)
    racing = env.process(reader())
    driver.propagate("k", driver.guess("a", 10), {"vk": "b"}, 20)
    env.run(until=racing)
    assert ("a", "payload") in seen             # it did race the move
    assert set(seen) == {("a", "payload"), ("b", "payload")}


@pytest.mark.parametrize("serializer", ["locks", "propagators"])
def test_a_view_get_racing_a_multi_column_move_never_sees_the_old_value(
        serializer):
    """``k`` moves from ``a`` to ``b`` and rewrites ``m`` in one Put.
    The new row's first apply carries the new ``m`` merged over the
    copied one, so no reader sees ``b`` with the old value — as one did
    while line 12 wrote it a round after line 4.  The reader's node
    holds no copy of ``b``, so it reads two remote replicas, neither of
    them the writer's own."""
    cluster = _chain_cluster(propagation_concurrency=serializer)
    client = cluster.sync_client(A)
    client.put("B", "k", {"vk": "a", "m": "old"})
    client.settle()
    env = cluster.env
    seen = []

    def reader():
        coordinator = cluster.coordinator(1)
        while ("b", "new") not in seen:
            for view_key in ("a", "b"):
                rows = yield from view_get(coordinator, VIEW, view_key,
                                           ("m",), 2)
                seen.extend((view_key, row["m"]) for row in rows)
            yield env.timeout(0.01)

    racing = env.process(reader())
    client.put("B", "k", {"vk": "b", "m": "new"})
    env.run(until=racing)
    assert ("a", "old") in seen                 # it did race the move
    assert set(seen) == {("a", "old"), ("b", "new")}


def _walk(driver, guess, columns=()):
    return driver.run(driver.maintainer.get_live_key(
        driver.coordinator, VIEW, "k", guess, columns))


def test_chain_walk_returns_cells_parked_on_the_null_anchor(driver):
    """A materialized update that propagates before any view-key update
    parks its cell on the NULL anchor; the walk from the pristine-NULL
    guess hands it back — beside the *virtual* anchor, no Next pointer
    exists yet — and the first view-key write copies it."""
    driver.base_put("k", {"m": "early"}, 5)
    driver.propagate("k", driver.guess(None, -1, virtual=True),
                     {"m": "early"}, 5)
    live_key, live_ts, cells = _walk(
        driver, driver.guess(None, -1, virtual=True), (("k", "m"),))
    assert (live_key, live_ts) == (NULL_VIEW_KEY, -1)
    assert cells[("k", "m")].value == "early"
    driver.base_put("k", {"vk": "a"}, 10)
    driver.propagate("k", driver.guess(None, -1, virtual=True),
                     {"vk": "a"}, 10)
    assert driver.get_view("a", ["m"])[0]["m"] == "early"


def test_chain_walk_returns_the_live_rows_cells_not_a_stale_hops(driver):
    _moved_row(driver)
    driver.base_put("k", {"vk": "b"}, 20)
    driver.propagate("k", driver.guess("a", 10), {"vk": "b"}, 20)
    driver.base_put("k", {"m": "newer"}, 30)
    driver.propagate("k", driver.guess("b", 20), {"m": "newer"}, 30)
    # "a" still holds m = payload; the walk from it ends at "b".
    live_key, live_ts, cells = _walk(driver, driver.guess("a", 10),
                                     (("k", "m"),))
    assert (live_key, live_ts) == ("b", 20)
    assert {column: cell.value for column, cell in cells.items()} == {
        ("k", "m"): "newer"}
    assert _walk(driver, driver.guess("a", 10)) == ("b", 20, {})


def test_only_a_view_key_update_reads_the_copy_columns(driver):
    _moved_row(driver)
    reads = []
    real_get = driver.maintainer._view_get

    def view_get(coordinator, view_name, view_key, columns):
        reads.append(columns)
        return (yield from real_get(coordinator, view_name, view_key,
                                    columns))

    driver.maintainer._view_get = view_get
    driver.base_put("k", {"m": "x"}, 12)
    driver.propagate("k", driver.guess("a", 10), {"m": "x"}, 12)
    assert reads == [(("k", "Next"),)]
    driver.base_put("k", {"vk": "b"}, 20)
    driver.propagate("k", driver.guess("a", 10), {"vk": "b"}, 20)
    assert reads[1:] == [(("k", "Next"), ("k", "m"))]


# ---------------------------------------------------------------------------
# Two rounds when the executor holds the row: what the fence is for
# ---------------------------------------------------------------------------


class ManagedChain:
    """Base row ``k`` of a *registered* view, moved by hand: each update
    is committed to the base table with no propagation and then driven
    through ``propagate_with_retries`` — so through
    ``ViewManager.serialized`` and its turn numbers — by a chosen
    coordinator from a chosen guess."""

    def __init__(self):
        self.cluster = Cluster(make_config())
        self.cluster.create_table("B")
        self.cluster.create_view(VIEW)
        self.manager = self.cluster.view_manager
        self.metrics = self.manager.maintainer.metrics
        self.reference = ReferenceViewModel(VIEW)

    def run(self, generator):
        process = self.cluster.env.process(generator)
        return self.cluster.env.run(until=process)

    def propagate(self, node, values, ts, guess):
        """One update of ``k`` through ``node``; returns ``(view-table
        Gets made, walks skipped)`` for it."""
        coordinator = self.cluster.coordinator(node)
        cells = {column: Cell.make(value, ts)
                 for column, value in values.items()}
        self.run(coordinator.put("B", "k", cells, 3))
        hops, skipped = self.metrics.chain_hops, self.metrics.walks_skipped
        guesses = [ViewKeyGuess.from_cell(
            VIEW, None if guess is None else Cell.make(*guess))]
        self.run(propagate_with_retries(
            self.manager, coordinator, VIEW, "B", "k", guesses,
            dict(values), ts))
        for column, value in values.items():
            self.reference.propagate(BaseUpdate("k", column, value, ts))
        return (self.metrics.chain_hops - hops,
                self.metrics.walks_skipped - skipped)

    def before_view_put(self, number, action):
        """Call ``action()`` just before the ``number``-th view-table
        Put from now is sent, once."""
        maintainer = self.manager.maintainer
        real_put = maintainer._view_put
        puts = [0]

        def view_put(coordinator, view_name, view_key, cells):
            puts[0] += 1
            if puts[0] == number:
                maintainer._view_put = real_put
                action()
            yield from real_put(coordinator, view_name, view_key, cells)

        maintainer._view_put = view_put

    def fail_view_put(self, number):
        """Make that Put raise ``QuorumError`` instead."""
        def fail():
            raise QuorumError("injected", required=2, received=0)

        self.before_view_put(number, fail)

    def violations(self):
        return check_view(self.cluster, VIEW, self.reference)

    def get_view(self, view_key):
        rows = self.run(view_get(self.cluster.coordinator(2), VIEW,
                                 view_key, ("m",), 2))
        return [(row.base_key, row["m"]) for row in rows]


A, B = 0, 1  # two coordinators


def test_a_move_by_another_coordinator_fences_the_held_row():
    """A makes ``b`` live, B moves the row on to ``c``, then A moves it
    again from a base-read guess taken before B's write.  A's memory
    says ``b`` is live; B's turn in between says not to believe it, so
    A walks (``b`` -> ``c``) and moves ``c``.

    Fails if the ``turn`` comparison in ``propagate_update`` is deleted:
    A then writes ``d`` off ``b``, whose newer stale pointer orphans the
    live ``c`` — two accessible live rows, and the NULL anchor's chain
    ends at the wrong one."""
    chain = ManagedChain()
    assert chain.propagate(A, {"vk": "a", "m": "p"}, 10, None) == (0, 1)
    assert chain.propagate(A, {"vk": "b"}, 20, ("a", 10)) == (0, 1)
    assert chain.propagate(B, {"vk": "c"}, 30, ("b", 20)) == (1, 0)
    assert chain.propagate(A, {"vk": "d"}, 40, ("b", 20)) == (2, 0)
    assert chain.violations() == []
    assert chain.get_view("d") == [("k", "p")]
    assert [chain.get_view(key) for key in "abc"] == [[], [], []]
    # And B, fenced by A's turn in the same way.
    assert chain.propagate(B, {"vk": "e"}, 50, ("c", 30)) == (2, 0)
    assert chain.violations() == []


def test_a_round_that_fails_after_line_4_walks_on_its_retry():
    """A move cut at its line-4 Put, after line 8 made ``a`` point at
    ``b``.  The held row is popped before use and stored again only by a
    move that ran to its end, so the retry makes the Get — and its walk
    finishes the cut move itself (the hop ``a`` -> ``b`` does not land:
    ``b`` holds no entry), then takes the same-key refresh.  A refresh
    stores nothing, so the next move walks too."""
    chain = ManagedChain()
    chain.propagate(A, {"vk": "a", "m": "p"}, 10, None)
    chain.fail_view_put(2)  # line 4 of the next move
    assert chain.propagate(A, {"vk": "b"}, 20, ("a", 10)) == (1, 1)
    assert chain.metrics.retry_rounds == 1
    assert chain.violations() == []
    assert chain.get_view("b") == [("k", "p")]
    assert chain.get_view("a") == []
    assert chain.propagate(A, {"vk": "c"}, 30, ("b", 20)) == (1, 0)


def test_the_retry_of_an_interrupted_move_enters_at_the_row_it_was_leaving():
    """``b`` -> ``a`` reuses a key *above* the live row, driven from the
    NULL anchor as every re-drive is, and is cut after line 8: ``b``
    points at ``a`` @ 30 while ``a`` still holds its older stale pointer
    back at ``b`` @ 20, a rising "cycle".  The retry needs no resume
    point: from the same guess (the anchor, repointed at ``b`` by the
    first attempt's three-hop walk) the hop ``b`` -> ``a`` does not land,
    so the walk finishes the move there, ``a`` live with ``b``'s cells."""
    chain = ManagedChain()
    chain.propagate(A, {"vk": "a", "m": "p"}, 10, None)
    chain.propagate(B, {"vk": "b"}, 20, ("a", 10))
    chain.fail_view_put(3)  # after the anchor's repoint and line 8
    assert chain.propagate(A, {"vk": "a"}, 30, None) == (5, 0)
    assert chain.violations() == []
    assert chain.get_view("a") == [("k", "p")]
    assert chain.get_view("b") == []


def test_a_payload_only_propagation_between_two_moves_forces_a_walk():
    """A materialized-only job writes the live row without moving it:
    A's copy of the row's cells is behind, and B's turn says so."""
    chain = ManagedChain()
    chain.propagate(A, {"vk": "a", "m": "older"}, 10, None)
    assert chain.propagate(B, {"m": "newer"}, 20, ("a", 10)) == (1, 0)
    assert chain.propagate(A, {"vk": "b"}, 30, ("a", 10)) == (1, 0)
    assert chain.violations() == []
    assert chain.get_view("b") == [("k", "newer")]


def test_a_gc_sweep_between_two_moves_forces_a_walk():
    chain = ManagedChain()
    chain.propagate(A, {"vk": "a", "m": "p"}, 10, None)
    assert chain.propagate(A, {"vk": "b"}, 20, ("a", 10)) == (0, 1)
    report = chain.run(collect_stale_rows(chain.cluster, VIEW, 10**6, B))
    assert report.rows_pruned == 1  # "a"; GC held the chain to do it
    assert chain.propagate(A, {"vk": "c"}, 30, ("b", 20)) == (1, 0)
    assert check_view(chain.cluster, VIEW) == []
    assert chain.get_view("c") == [("k", "p")]


def test_a_coordinator_that_failed_and_recovered_walks():
    """The held rows are volatile: a crashed coordinator does not come
    back remembering them."""
    chain = ManagedChain()
    chain.propagate(A, {"vk": "a", "m": "p"}, 10, None)
    assert chain.propagate(A, {"vk": "b"}, 20, ("a", 10)) == (0, 1)
    chain.cluster.fail_node(A)
    chain.cluster.recover_node(A)
    assert chain.propagate(A, {"vk": "c"}, 30, ("b", 20)) == (1, 0)
    assert chain.propagate(A, {"vk": "d"}, 40, ("c", 30)) == (0, 1)
    assert chain.violations() == []


def test_a_move_that_outlives_its_coordinators_crash_leaves_nothing_held():
    """The simulation lets a propagation in flight run on through its
    node's failure; what it made live is not remembered either."""
    chain = ManagedChain()
    chain.propagate(A, {"vk": "a", "m": "p"}, 10, None)

    def crash_and_return():
        chain.cluster.fail_node(A)
        chain.cluster.recover_node(A)

    chain.before_view_put(2, crash_and_return)
    assert chain.propagate(A, {"vk": "b"}, 20, ("a", 10)) == (0, 1)
    assert chain.propagate(A, {"vk": "c"}, 30, ("b", 20)) == (1, 0)
    assert chain.violations() == []


def test_a_propagation_lost_to_a_coordinator_crash_leaves_nothing_held():
    """The crash path runs no Algorithm 2 at all: the row A holds after
    it is still the one its last completed move made live, so the lost
    Put and the next one both skip their base read on it.  (The first
    Put skips its read too: its chain is pristine.)"""
    cluster = Cluster(make_config())
    cluster.create_table("B")
    cluster.create_view(VIEW)
    cluster.enable_tracing()
    manager = cluster.view_manager
    client = cluster.sync_client(A)
    client.put("B", "k", {"vk": "a"})
    client.put("B", "k", {"vk": "b"})
    client.settle()
    lose = [True]
    manager.add_crash_hook(lambda *_args: lose.pop() if lose else False)
    client.put("B", "k", {"vk": "lost"})
    client.settle()
    assert manager.lost_propagations == 1
    client.put("B", "k", {"vk": "c"})
    client.settle()
    assert [(event.message, event.fields["live"])
            for event in cluster.tracer.events("chain")] == [
        ("base read skipped", None), ("live row held", "a"),
        ("base read skipped", "b"), ("base read skipped", "b"),
        ("live row held", "b")]
    assert check_view(cluster, VIEW) == []


# ---------------------------------------------------------------------------
# Three rounds when the coordinator holds the row: Algorithm 1's Get skipped
# ---------------------------------------------------------------------------


def _base_reads(monkeypatch, cluster):
    """Log the table of every Algorithm 1 Get (an every-replica read)
    any coordinator of ``cluster`` sends from now on."""
    from repro.cluster.coordinator import Coordinator

    reads = []
    real = Coordinator.scatter_read

    def counted(self, table, *args, every_replica=False, **kwargs):
        if every_replica:
            reads.append(table)
        return real(self, table, *args, every_replica=every_replica,
                    **kwargs)

    monkeypatch.setattr(Coordinator, "scatter_read", counted)
    return reads


def _chain_cluster(*views, **overrides):
    cluster = Cluster(make_config(**overrides))
    cluster.create_table("B")
    for view in views or (VIEW,):
        cluster.create_view(view)
    return cluster


@pytest.mark.parametrize("serializer", ["locks", "propagators"])
def test_a_repeat_move_by_the_holder_sends_no_base_read(monkeypatch,
                                                        serializer):
    """The coordinator (under propagators: the row's propagator) that
    made the row live moves it again: its record will skip the walk,
    the only reader of Algorithm 1's guesses, so the Put skips the Get
    that collects them."""
    cluster = _chain_cluster(propagation_concurrency=serializer)
    manager = cluster.view_manager
    holder = (A if serializer == "locks"
              else manager.propagator_for("V", "k"))
    client = cluster.sync_client(holder)
    reads = _base_reads(monkeypatch, cluster)
    client.put("B", "k", {"vk": "a", "m": "p"})
    client.settle()
    assert reads == []  # the chain was pristine
    for view_key in "bcd":
        client.put("B", "k", {"vk": view_key})
        client.settle()
    metrics = manager.maintainer.metrics
    assert reads == []
    # Four reads and four walks skipped: the first turn's and the three
    # held rows'.
    assert (metrics.reads_skipped, metrics.walks_skipped) == (4, 4)
    assert check_view(cluster, VIEW) == []
    assert [(row.base_key, row["m"])
            for row in client.get_view("V", "d", ["m"])] == [("k", "p")]


@pytest.mark.parametrize("serializer", ["locks", "propagators"])
def test_a_chains_first_job_walks_nowhere_whatever_its_guess(serializer):
    """The chain's first turn takes the virtual NULL anchor with no Get,
    even from a guess naming a row that does not exist: nothing of the
    chain can exist before its first job.  The second job, from the same
    guess, walks — and fails it (a payload update: a move would skip its
    walk on the row the first job left held)."""
    cluster = _chain_cluster(propagation_concurrency=serializer)
    manager = cluster.view_manager
    metrics = manager.maintainer.metrics
    nowhere = [ViewKeyGuess("nowhere", 5)]

    def one_round(values, ts):
        def job(executor, turn):
            return drive._attempt_round(manager, executor, VIEW, "k",
                                        nowhere, values, ts, turn)

        return cluster.env.run(until=cluster.env.process(manager.serialized(
            cluster.coordinator(A), VIEW, "k", job)))

    assert one_round({"vk": "a", "m": "p"}, 10) is True
    assert (metrics.guess_failures, metrics.walks_skipped) == (0, 1)
    assert one_round({"m": "q"}, 20) is False
    assert (metrics.guess_failures, metrics.walks_skipped) == (1, 1)
    rows = cluster.sync_client(2).get_view("V", "a", ["m"])
    assert [(row.base_key, row["m"]) for row in rows] == [("k", "p")]


def test_a_put_whose_held_row_another_coordinators_move_fenced_reads(
        monkeypatch):
    """A holds ``a`` at turn 1 (its Put found the chain pristine and
    made no Get); B's move takes turn 2.  A's next Put peeks, finds the
    chain moved on, and makes Algorithm 1's Get."""
    cluster = _chain_cluster()
    reads = _base_reads(monkeypatch, cluster)
    holder, other = cluster.sync_client(A), cluster.sync_client(B)
    holder.put("B", "k", {"vk": "a", "m": "p"})
    holder.settle()
    other.put("B", "k", {"vk": "b"})
    other.settle()
    holder.put("B", "k", {"vk": "c"})
    holder.settle()
    assert reads == ["B", "B"]
    assert cluster.view_manager.maintainer.metrics.reads_skipped == 1
    assert check_view(cluster, VIEW) == []
    assert [row.base_key for row in holder.get_view("V", "c", ["m"])] == [
        "k"]


def test_a_put_that_skipped_its_read_and_lost_the_race_walks_from_the_held_row():
    """A's Put of ``b`` @ 20 skips its read on the strength of its peek,
    and B's move to ``c`` @ 30 takes the chain before A's record does.
    The fence breaks, so the record walks — from ``a``, the row A holds,
    which B moved on — and enters ``b`` stale behind the newer ``c``."""
    cluster = _chain_cluster()
    manager = cluster.view_manager
    maintainer = manager.maintainer
    reference = ReferenceViewModel(VIEW)
    env = cluster.env

    def put(node, values, ts):
        coordinator = cluster.coordinator(node)
        cells = {column: Cell.make(value, ts)
                 for column, value in values.items()}
        env.run(until=env.process(
            manager.base_put(coordinator, "B", "k", cells, 3)))
        for column, value in values.items():
            reference.propagate(BaseUpdate("k", column, value, ts))

    walks = []
    real_walk = maintainer.get_live_key

    def walk(coordinator, view, base_key, guess, *args, **kwargs):
        walks.append((coordinator.node.node_id, guess.key))
        return (yield from real_walk(coordinator, view, base_key, guess,
                                     *args, **kwargs))

    maintainer.get_live_key = walk
    put(A, {"vk": "a", "m": "p"}, 10)
    cluster.run_until_idle()
    # B's base write lands first, unpropagated; then A's Put skips its
    # read and B's job is handed the chain while A's record still waits
    # out its scheduling delay.
    coordinator_b = cluster.coordinator(B)
    env.run(until=env.process(coordinator_b.put(
        "B", "k", {"vk": Cell.make("c", 30)}, 3)))
    reference.propagate(BaseUpdate("k", "vk", "c", 30))
    put(A, {"vk": "b"}, 20)
    # A's first Put skipped its read on a pristine chain, its second on
    # the row A holds.
    assert maintainer.metrics.reads_skipped == 2
    env.process(propagate_with_retries(
        manager, coordinator_b, VIEW, "B", "k",
        [ViewKeyGuess("a", 10)], {"vk": "c"}, 30))
    cluster.run_until_idle()
    # A's first Put took the chain's first turn, which walks nowhere.
    assert walks == [(B, "a"), (A, "a")]
    assert maintainer.metrics.walks_skipped == 1
    assert check_view(cluster, VIEW, reference) == []
    client = cluster.sync_client(2)
    assert [(row.base_key, row["m"])
            for row in client.get_view("V", "c", ["m"])] == [("k", "p")]
    assert client.get_view("V", "b", ["m"]) == []


def _race_first_puts(cluster, reference):
    """A's Put of ``a`` (with ``m``) @ 10 and B's of ``b`` @ 20 arrive at
    one instant on the pristine row ``k``; returns the ``(turn, guess
    key)`` of every propagation job, in the order they run."""
    manager = cluster.view_manager
    env = cluster.env
    jobs = []
    real = manager.maintainer.propagate_update

    def propagate_update(coordinator, view, base_key, guess, *args):
        jobs.append((args[2], guess.key))
        return (yield from real(coordinator, view, base_key, guess, *args))

    manager.maintainer.propagate_update = propagate_update
    for node, values, ts in ((A, {"vk": "a", "m": "p"}, 10),
                             (B, {"vk": "b"}, 20)):
        cells = {column: Cell.make(value, ts)
                 for column, value in values.items()}
        env.process(manager.base_put(cluster.coordinator(node), "B", "k",
                                     cells, 3))
        for column, value in values.items():
            reference.propagate(BaseUpdate("k", column, value, ts))
    cluster.run_until_idle()
    return jobs


def _assert_converged_on_b(cluster, reference):
    assert check_view(cluster, VIEW, reference) == []
    assert divergent_base_keys(cluster, VIEW) == []
    client = cluster.sync_client(2)
    assert [(row.base_key, row["m"])
            for row in client.get_view("V", "b", ["m"])] == [("k", "p")]
    assert client.get_view("V", "a", ["m"]) == []


@pytest.mark.parametrize("serializer", ["locks", "propagators"])
def test_two_first_puts_racing_on_a_pristine_row_both_skip_their_read(
        serializer):
    """Both Puts peek turn 0, so neither makes Algorithm 1's Get.  One
    record takes the chain's first turn and walks nowhere; the other
    runs at turn 2 from its sure guesses — its coordinator holds no row,
    so the never-written NULL.  Under locks it walks from the anchor the
    first turn's line 8 wrote to the live row (two Gets); under
    propagators the row's propagator ran turn 1 and still holds the
    row, so turn 2 skips its walk."""
    cluster = _chain_cluster(propagation_concurrency=serializer)
    reference = ReferenceViewModel(VIEW)
    jobs = _race_first_puts(cluster, reference)
    metrics = cluster.view_manager.maintainer.metrics
    assert metrics.reads_skipped == 2
    assert [turn for turn, _key in jobs] == [1, 2]
    assert jobs[1][1] == NULL_VIEW_KEY
    assert (metrics.walks_skipped, metrics.chain_hops) == (
        (1, 2) if serializer == "locks" else (2, 0))
    _assert_converged_on_b(cluster, reference)


@pytest.mark.parametrize("serializer", ["locks", "propagators"])
def test_a_raced_first_turn_cut_by_a_quorum_error_still_converges(
        monkeypatch, serializer):
    """The race above, with the first turn's line-4 Put failing: the
    turn-2 job walks from the NULL anchor into the cut move and finishes
    it, and the failed record's retry, at turn 3, walks from the NULL
    anchor too.  Nothing is left for a scrubber."""
    from repro.views.maintenance import ViewMaintainer

    real_put = ViewMaintainer._view_put
    failed = []

    def fail_first_line_4(self, coordinator, view_name, view_key, cells):
        if view_key != NULL_VIEW_KEY and not failed:
            failed.append(view_key)
            raise QuorumError("injected", required=2, received=0)
        yield from real_put(self, coordinator, view_name, view_key, cells)

    monkeypatch.setattr(ViewMaintainer, "_view_put", fail_first_line_4)
    cluster = _chain_cluster(propagation_concurrency=serializer)
    reference = ReferenceViewModel(VIEW)
    jobs = _race_first_puts(cluster, reference)
    metrics = cluster.view_manager.maintainer.metrics
    assert len(failed) == 1
    assert (metrics.reads_skipped, metrics.retry_rounds) == (2, 1)
    assert jobs == [(1, NULL_VIEW_KEY), (2, NULL_VIEW_KEY),
                    (3, NULL_VIEW_KEY)]
    _assert_converged_on_b(cluster, reference)


def test_a_table_with_two_views_reads_unless_both_chains_are_held_current(
        monkeypatch):
    """One Get serves every view the Put touches, so it is skipped only
    if the coordinator holds each touched chain's live row at its
    current turn."""
    second = ViewDefinition("W", "B", "wk", ("m",))
    cluster = _chain_cluster(VIEW, second)
    reads = _base_reads(monkeypatch, cluster)
    holder, other = cluster.sync_client(A), cluster.sync_client(B)
    metrics = cluster.view_manager.maintainer.metrics

    def put(client, values):
        before = (len(reads), metrics.reads_skipped)
        client.put("B", "k", values)
        client.settle()
        return len(reads) - before[0], metrics.reads_skipped - before[1]

    assert put(holder, {"vk": "a", "wk": "x", "m": "p"}) == (0, 1)  # pristine
    assert put(holder, {"vk": "b", "wk": "y"}) == (0, 1)
    assert put(other, {"wk": "z"}) == (1, 0)  # W's chain moves on
    assert put(holder, {"vk": "c", "wk": "w"}) == (1, 0)  # W is fenced
    assert put(holder, {"vk": "d"}) == (0, 1)  # V alone, held current
    # W's record walked and made ``w`` live: A holds both again.
    assert put(holder, {"vk": "e", "wk": "v"}) == (0, 1)
    assert check_view(cluster, VIEW) == []
    assert check_view(cluster, second) == []


# ---------------------------------------------------------------------------
# Path compression on the NULL anchor
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("moves", [16, 64, 256])
def test_a_second_re_drive_finds_the_anchor_one_hop_from_the_live_row(
        moves):
    """Coordinator 0 moves one row ``moves`` times, holding the live row
    so no move walks.  The first re-drive from coordinator 2 walks the
    whole chain from the NULL anchor — one Get per move and one more for
    the anchor — and ends by repointing the anchor at the live row, so
    the second takes two."""
    cluster = Cluster(make_config())
    cluster.create_table("B")
    cluster.create_view(VIEW)
    client = cluster.sync_client(0)
    client.put("B", "k", {"vk": "g0", "m": "p"})
    for i in range(1, moves):
        client.put("B", "k", {"vk": f"g{i}"})
    client.settle()
    metrics = cluster.view_manager.maintainer.metrics
    hops = []
    for _ in range(2):
        before = metrics.chain_hops
        process = cluster.env.process(repropagate_row(
            cluster.view_manager, cluster.coordinator(2), VIEW, "k"))
        cluster.env.run(until=process)
        hops.append(metrics.chain_hops - before)
    assert hops == [moves + 1, 2]
    anchor = collect_entries(cluster, VIEW)["k"][NULL_VIEW_KEY]
    assert anchor.next_key == f"g{moves - 1}"
    assert check_view(cluster, VIEW) == []


@pytest.mark.parametrize("width", [1, 3])
def test_a_re_drive_costs_the_same_rpcs_whatever_the_rows_width(width):
    """Coordinator 0 makes ``k`` live with ``width`` materialized
    columns and holds it; a re-drive from coordinator 2 is one
    serialized job: the base view-key Get (2 RPCs), the walk from the
    NULL anchor to the live row (2 x 2), one Get of the materialized
    base columns (2) and the self-pointer's Put, which writes them (3):
    11 RPCs at any width.  (Writing each column in a job of its own
    took 14 at width 1 and 24 at width 3.)"""
    columns = tuple(f"m{i}" for i in range(width))
    view = ViewDefinition("V", "B", "vk", columns)
    cluster = Cluster(make_config())
    cluster.create_table("B")
    cluster.create_view(view)
    client = cluster.sync_client(0)
    client.put("B", "k", {"vk": "g0", **{c: c.upper() for c in columns}})
    client.settle()
    sent = cluster.network.messages_sent
    cluster.env.run(until=cluster.env.process(repropagate_row(
        cluster.view_manager, cluster.coordinator(2), view, "k")))
    assert cluster.network.messages_sent - sent == 11
    assert check_view(cluster, view) == []
    (row,) = client.get_view("V", "g0", list(columns))
    assert [row[c] for c in columns] == [c.upper() for c in columns]


def test_a_walk_from_a_stale_guess_repoints_nothing():
    """Only the anchor is compressed: a serialized walk that enters
    three hops back from the live row writes no pointer, so ``a``, the
    anchor and every row between keep their ``Next`` cells."""
    chain = ManagedChain()
    chain.propagate(A, {"vk": "a", "m": "p"}, 10, None)
    for ts, (old, new) in zip((20, 30, 40), ("ab", "bc", "cd")):
        chain.propagate(B, {"vk": new}, ts, (old, ts - 10))

    def pointers():
        return {key: entry.next_cell for key, entry
                in collect_entries(chain.cluster, VIEW)["k"].items()}

    before = pointers()
    assert chain.propagate(A, {"m": "q"}, 50, ("a", 10)) == (4, 0)
    assert pointers() == before
    assert chain.get_view("d") == [("k", "q")]
    assert chain.violations() == []



# ---------------------------------------------------------------------------
# Cut moves: line 8 landed, the new row did not
# ---------------------------------------------------------------------------


def cut_move(chain, source, target, ts):
    """Commit ``vk = target`` at ``ts`` to the base table and plant only
    its move's line 8 — ``source`` points at ``target`` — on every
    replica, as a move cut between its two Puts leaves it."""
    coordinator = chain.cluster.coordinator(A)
    chain.run(coordinator.put("B", "k", {"vk": Cell.make(target, ts)}, 3))
    for replica in chain.cluster.replicas_for("V", source):
        replica.engine.apply("V", source, {
            ("k", "Next"): Cell(target, view_timestamp(ts, PHASE_STALE))})
    chain.reference.propagate(BaseUpdate("k", "vk", target, ts))


def cut_moves(chain):
    """``(left, target, finished)`` of every cut move a walk met."""
    return [(event.fields["left"], event.fields["target"],
             event.fields["finished"])
            for event in chain.cluster.tracer.events("chain")
            if event.message == "cut move"]


# Re-drives and retries run on a coordinator that holds no live row.
C = 2


def redrive(chain):
    chain.run(repropagate_row(chain.manager, chain.cluster.coordinator(C),
                              VIEW, "k"))


def retry(chain, guess, values, ts):
    chain.run(propagate_with_retries(
        chain.manager, chain.cluster.coordinator(C), VIEW, "B", "k",
        [ViewKeyGuess(*guess)], values, ts))


@pytest.mark.parametrize("entry", ["anchor", "left row", "reused key"])
def test_a_walk_finishes_a_cut_move_once_from_any_entry_point(
        entry, monkeypatch):
    """A move cut after line 8 leaves J pointing at K, where K holds no
    entry, or (a reused key) an older stale one pointing back at J.  A
    walk follows a pointer only to a row whose own pointer is at least
    as new, so a view-key move's walk stops at J and finishes the move:
    K live at the cut's timestamp with J's cells.  Walked from the NULL
    anchor (a re-drive), from J, or from K itself, it does so once and
    leaves exactly one live row."""
    monkeypatch.setattr(drive, "MAX_ROUNDS", 3)
    chain = ManagedChain()
    chain.cluster.enable_tracing()
    chain.propagate(A, {"vk": "a", "m": "p"}, 10, None)
    if entry == "reused key":
        chain.propagate(B, {"vk": "b"}, 20, ("a", 10))
        cut_move(chain, "b", "a", 30)   # a -> b @ 20, b -> a @ 30
        left, target = "b", "a"
        retry(chain, ("a", 30), {"vk": "a"}, 30)
    else:
        cut_move(chain, "a", "b", 20)
        left, target = "a", "b"
        if entry == "anchor":
            redrive(chain)
        else:
            retry(chain, ("a", 10), {"vk": "b"}, 20)
    assert cut_moves(chain) == [(left, target, True)]
    assert chain.violations() == []
    assert chain.get_view(target) == [("k", "p")]
    assert chain.get_view(left) == []
    redrive(chain)
    assert len(cut_moves(chain)) == 1
    assert chain.violations() == []


def test_a_payload_update_on_a_cut_chain_lands_on_the_row_left(monkeypatch):
    """A materialized-only propagation's walk does not read J's cells,
    so it has none to finish a cut move with.  It writes J, which still
    holds the row's cells, and the move's finish later copies the new
    cell on."""
    monkeypatch.setattr(drive, "MAX_ROUNDS", 3)
    chain = ManagedChain()
    chain.cluster.enable_tracing()
    chain.propagate(A, {"vk": "a", "m": "p"}, 10, None)
    cut_move(chain, "a", "b", 20)
    chain.propagate(B, {"m": "q"}, 25, ("a", 10))
    assert cut_moves(chain) == [("a", "b", False)]
    assert collect_entries(chain.cluster, VIEW)["k"]["a"].cells[
        "m"].value == "q"
    assert chain.get_view("b") == []
    retry(chain, ("a", 10), {"vk": "b"}, 20)
    assert cut_moves(chain)[1:] == [("a", "b", True)]
    assert chain.get_view("b") == [("k", "q")]
    assert chain.violations() == []
