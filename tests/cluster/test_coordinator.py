"""Tests for ResponseCollector and coordinator quorum semantics."""

import random
from functools import partial

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.cluster import coordinator as coordinator_module
from repro.cluster.coordinator import (
    READ_HEDGE,
    RPC_TIMEOUT,
    QuorumDeadlines,
    ResponseCollector,
)
from repro.common import Cell, merge_cells, merge_rows
from repro.errors import QuorumError, UnavailableError
from repro.sim import Environment

from tests.cluster.conftest import make_config


# ---------------------------------------------------------------------------
# ResponseCollector
# ---------------------------------------------------------------------------


def collector_for(env, deadlines, replies, silent=0):
    """A collector for ``len(replies) + silent`` replicas, watched by
    ``deadlines``; each ``(delay, value)`` reply is handed to it
    ``delay`` from now by a timer, as ``Network.rpc``'s reply timer
    does, and the ``silent`` replicas never answer."""
    collector = ResponseCollector(env, len(replies) + silent)
    for delay, value in replies:
        env.call_at(env.now + delay, partial(collector.receive, value))
    deadlines.watch(collector)
    return collector


def test_collector_wait_returns_first_k():
    env = Environment()
    collector = collector_for(env, QuorumDeadlines(env, 100.0),
                              [(3.0, "c"), (1.0, "a"), (2.0, "b")])
    got = {}

    def proc():
        got["two"] = yield collector.wait(2)
        got["when"] = env.now

    env.process(proc())
    env.run()
    assert got["two"] == ["a", "b"]
    assert got["when"] == 2.0


def test_collector_multiple_waiters():
    env = Environment()
    collector = collector_for(env, QuorumDeadlines(env, 100.0),
                              [(1.0, "a"), (2.0, "b"), (3.0, "c")])
    got = {}

    def proc(name, count):
        responses = yield collector.wait(count)
        got[name] = (responses, env.now)

    env.process(proc("one", 1))
    env.process(proc("three", 3))
    env.run()
    assert got["one"] == (["a"], 1.0)
    assert got["three"] == (["a", "b", "c"], 3.0)


def test_collector_wait_after_responses_arrived():
    env = Environment()
    collector = collector_for(env, QuorumDeadlines(env, 100.0), [(1.0, "a")])
    got = {}

    def proc():
        yield env.timeout(50.0)
        got["late"] = yield collector.wait(1)

    env.process(proc())
    env.run()
    assert got["late"] == ["a"]


def test_collector_timeout_fails_waiter():
    env = Environment()
    # Only one reply will ever arrive; the waiter wants two.
    collector = collector_for(env, QuorumDeadlines(env, 10.0), [(1.0, "a")],
                              silent=1)
    caught = []

    def proc():
        try:
            yield collector.wait(2)
        except QuorumError as exc:
            caught.append((exc.required, exc.received, env.now))

    env.process(proc())
    env.run(until=50.0)
    assert caught == [(2, 1, 10.0)]


def test_collector_wait_more_than_total_fails_fast_after_timeout():
    env = Environment()
    collector = collector_for(env, QuorumDeadlines(env, 5.0), [(1.0, "x")])
    caught = []

    def proc():
        yield env.timeout(6.0)
        try:
            yield collector.wait(2)
        except QuorumError:
            caught.append(env.now)

    env.process(proc())
    env.run()
    assert caught == [6.0]


def test_collector_settled_carries_all_responses():
    env = Environment()
    collector = collector_for(env, QuorumDeadlines(env, 100.0),
                              [(1.0, "a"), (4.0, "b")])
    got = {}

    def proc():
        got["all"] = yield collector.settled
        got["when"] = env.now

    env.process(proc())
    env.run()
    assert got["all"] == ["a", "b"]
    assert got["when"] == 4.0


def test_collector_settles_at_timeout_with_partial_responses():
    env = Environment()
    collector = collector_for(env, QuorumDeadlines(env, 10.0), [(1.0, "a")],
                              silent=1)
    got = {}

    def proc():
        got["all"] = yield collector.settled
        got["when"] = env.now

    env.process(proc())
    env.run(until=50.0)
    assert got["all"] == ["a"]
    assert got["when"] == 10.0


def test_collector_failure_propagates():
    env = Environment()
    collector = collector_for(env, QuorumDeadlines(env, 100.0), [], silent=1)
    caught = []

    def proc():
        try:
            yield collector.wait(1)
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(proc())
    env.call_at(1.0, lambda: collector.fail(RuntimeError("handler blew up")))
    env.run(until=200.0)
    assert caught == ["handler blew up"]


def test_a_handler_error_reaches_waiters_that_come_after_it():
    """A loopback's handler can raise inside ``Network.rpc``, before
    its caller waits: the later waiter gets the handler's exception,
    not a ``QuorumError``."""
    env = Environment()
    collector = collector_for(env, QuorumDeadlines(env, 100.0), [], silent=2)
    collector.fail(RuntimeError("handler blew up"))
    caught = []

    def proc():
        try:
            yield collector.wait(1)
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(proc())
    env.run()
    assert caught == ["handler blew up"]


def test_collector_empty_settles_immediately():
    env = Environment()
    collector = ResponseCollector(env, 0)
    got = {}

    def proc():
        got["all"] = yield collector.settled

    env.process(proc())
    env.run(until=20.0)
    assert got["all"] == []


def test_settled_requested_after_settling_still_carries_every_response():
    env = Environment()
    collector = collector_for(env, QuorumDeadlines(env, 100.0),
                              [(1.0, "a"), (2.0, "b")])
    got = {}

    def proc():
        yield env.timeout(5.0)
        # Created on first use, long after the round settled: already
        # processed, so the process continues within the same instant.
        got["all"] = yield collector.settled
        got["when"] = env.now

    env.process(proc())
    env.run()
    assert got == {"all": ["a", "b"], "when": 5.0}
    assert collector.settled is collector.settled


def test_failed_round_whose_settled_nobody_reads_does_not_abort_the_run():
    env = Environment()
    collector = collector_for(env, QuorumDeadlines(env, 100.0), [], silent=2)
    caught = []

    def proc():
        try:
            yield collector.wait(1)
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(proc())
    env.call_at(0.0, lambda: collector.fail(RuntimeError("handler blew up")))
    env.run()   # an unconsumed failed ``settled`` would escalate here
    assert caught == ["handler blew up"]

    # Asked for afterwards, it delivers the failure to whoever reads it.
    def late_reader():
        try:
            yield collector.settled
        except RuntimeError as exc:
            caught.append(f"late: {exc}")

    env.process(late_reader())
    env.run()
    assert caught == ["handler blew up", "late: handler blew up"]


def test_failed_round_with_an_unread_settled_event_does_not_abort_the_run():
    env = Environment()
    collector = collector_for(env, QuorumDeadlines(env, 100.0), [], silent=1)
    assert not collector.settled.triggered   # asked for, never yielded
    collector.fail(RuntimeError("handler blew up"))
    env.run()
    assert not collector.settled.ok


def test_waiter_woken_in_place_may_wait_on_the_same_collector_again():
    env = Environment()
    collector = collector_for(env, QuorumDeadlines(env, 100.0),
                              [(1.0, "a"), (2.0, "b"), (3.0, "c")])
    got = []

    def proc():
        got.append(((yield collector.wait(1)), env.now))
        # Runs inside the collector's response callback.
        got.append(((yield collector.wait(3)), env.now))

    def other():
        got.append(((yield collector.wait(2)), env.now))

    env.process(proc())
    env.process(other())
    env.run()
    assert got == [(["a"], 1.0), (["a", "b"], 2.0), (["a", "b", "c"], 3.0)]


def test_unsettled_collector_behind_a_thousand_settled_ones_expires_on_time():
    env = Environment(initial_time=0.3)
    deadlines = QuorumDeadlines(env, 0.7)
    caught = []

    def round_trip(index):
        """One healthy round: both replicas answer within 0.02."""
        collector = collector_for(env, deadlines,
                                  [(0.01, index), (0.02, index)])
        yield collector.wait(2)

    def silent():
        created = env.now
        collector = collector_for(env, deadlines, [(0.01, "only")],
                                  silent=1)
        try:
            yield collector.wait(2)
        except QuorumError as exc:
            caught.append((exc.received, env.now == created + 0.7))
        caught.append(collector.settled.value)

    def driver():
        for index in range(1000):
            yield env.process(round_trip(index))
        env.process(silent())
        for index in range(1000):   # and healthy traffic behind it
            yield env.process(round_trip(index))

    env.process(driver())
    env.run()
    assert caught == [(1, True), ["only"]]
    assert not deadlines._queue


def test_collectors_created_in_the_same_instant_all_expire():
    env = Environment()
    deadlines = QuorumDeadlines(env, 10.0)
    collectors = [collector_for(env, deadlines, [], silent=1)
                  for _ in range(3)]
    late = []

    def proc():
        yield env.timeout(4.0)
        collector = collector_for(env, deadlines, [], silent=1)
        try:
            yield collector.wait(1)
        except QuorumError:
            late.append(env.now)

    env.process(proc())
    env.run(until=10.0)
    assert all(collector.is_settled for collector in collectors)
    env.run()
    assert late == [14.0]


def test_healthy_quorum_rounds_leave_no_timers_on_the_heap():
    """Eight closed-loop clients, 2,000 rounds: a timer per round would
    keep ``RPC_TIMEOUT`` worth of dead entries on the heap (~1,800 at
    this rate); the deadline queue keeps one.  Every Get here skips a
    replica (R = 1 and R = 2 in turn), so each is also on the hedge
    queue: a hedge timer per read would add ``READ_HEDGE`` worth
    (~28 on top of the 26 seen); that queue keeps one as well, and no
    hedge fires."""
    cluster = Cluster(ClusterConfig(seed=3))
    cluster.create_table("T")
    env = cluster.env
    deepest = [0]
    rounds = [0]

    def watcher(_event):
        deepest[0] = max(deepest[0], len(env._heap))

    def client(handle, index):
        for i in range(250):
            key = f"k{(index * 7 + i) % 40}"
            if i % 2:
                yield from handle.get("T", key, ("c",), r=1 + i // 2 % 2)
            else:
                yield from handle.put("T", key, {"c": i}, w=2)
            rounds[0] += 1

    env.set_event_watcher(watcher)
    for index in range(8):
        env.process(client(cluster.client(), index))
    cluster.run_until_idle()
    assert rounds[0] == 2000
    assert deepest[0] < 40
    assert not cluster.read_hedges._queue
    assert hedges_fired(cluster) == 0


# ---------------------------------------------------------------------------
# Coordinator quorum operations
# ---------------------------------------------------------------------------


def build_cluster(**overrides):
    cluster = Cluster(make_config(**overrides))
    cluster.create_table("T")
    return cluster


def hedges_fired(cluster) -> int:
    return sum(cluster.coordinator(node.node_id).hedged_reads
               for node in cluster.nodes)


def run_proc(cluster, generator):
    process = cluster.env.process(generator)
    return cluster.env.run(until=process)


def test_put_then_get_round_trip():
    cluster = build_cluster()
    coordinator = cluster.coordinator(0)
    run_proc(cluster, coordinator.put("T", "k", {"a": Cell.make(7, 5)}, w=3))
    merged = run_proc(cluster, coordinator.get("T", "k", ("a",), r=1))
    assert merged["a"] == Cell.make(7, 5)


def test_quorum_consensus_sees_latest_write():
    """W + R > N: the read must observe the acknowledged write."""
    cluster = build_cluster()
    coordinator = cluster.coordinator(0)
    run_proc(cluster, coordinator.put("T", "k", {"a": Cell.make("v1", 10)}, w=2))
    merged = run_proc(cluster, coordinator.get("T", "k", ("a",), r=2))
    assert merged["a"].value == "v1"


def test_write_quorum_validated():
    cluster = build_cluster()
    coordinator = cluster.coordinator(0)
    from repro.errors import InvalidQuorumError

    with pytest.raises(InvalidQuorumError):
        run_proc(cluster,
                 coordinator.put("T", "k", {"a": Cell.make(1, 0)}, w=4))


def test_unavailable_when_too_few_replicas_alive():
    cluster = build_cluster()
    coordinator = cluster.coordinator(0)
    replicas = cluster.replicas_for("T", "k")
    for replica in replicas[:2]:
        replica.mark_down()
    with pytest.raises(UnavailableError):
        run_proc(cluster,
                 coordinator.put("T", "k", {"a": Cell.make(1, 0)}, w=2))


def test_write_succeeds_with_one_replica_down_w1():
    cluster = build_cluster()
    coordinator = cluster.coordinator(0)
    replicas = cluster.replicas_for("T", "k")
    replicas[0].mark_down()
    run_proc(cluster, coordinator.put("T", "k", {"a": Cell.make(1, 5)}, w=1))
    alive = [r for r in replicas if not r.is_down]
    assert any(r.engine.read("T", "k", ("a",))["a"] is not None for r in alive)


def test_get_merges_newest_across_replicas():
    cluster = build_cluster()
    replicas = cluster.replicas_for("T", "k")
    # Hand-plant divergent replica states.
    replicas[0].engine.apply("T", "k", {"a": Cell.make("old", 1)})
    replicas[1].engine.apply("T", "k", {"a": Cell.make("new", 9)})
    replicas[2].engine.apply("T", "k", {"a": Cell.make("mid", 5)})
    coordinator = cluster.coordinator(0)
    merged = run_proc(cluster, coordinator.get("T", "k", ("a",), r=3))
    assert merged["a"].value == "new"


def test_read_repair_heals_stale_replicas():
    cluster = build_cluster()
    replicas = cluster.replicas_for("T", "k")
    replicas[0].engine.apply("T", "k", {"a": Cell.make("old", 1)})
    replicas[1].engine.apply("T", "k", {"a": Cell.make("new", 9)})
    coordinator = cluster.coordinator(0)
    run_proc(cluster, coordinator.get("T", "k", ("a",), r=3))
    cluster.run_until_idle()
    for replica in replicas:
        assert replica.engine.read("T", "k", ("a",))["a"].value == "new"


def test_get_row_read_repairs_divergent_replicas():
    """Wide-row reads (the view read path) also heal divergence."""
    cluster = build_cluster()
    replicas = cluster.replicas_for("T", "k")
    replicas[0].engine.apply("T", "k", {"a": Cell.make("old", 1)})
    replicas[1].engine.apply("T", "k", {"a": Cell.make("new", 9),
                                        "b": Cell.make("only", 3)})
    coordinator = cluster.coordinator(0)
    run_proc(cluster, coordinator.get_row("T", "k", r=3))
    cluster.run_until_idle()
    for replica in replicas:
        assert replica.engine.read("T", "k", ("a",))["a"].value == "new"
        assert replica.engine.read("T", "k", ("b",))["b"].value == "only"


_OLD, _NEW = Cell.make("old", 1), Cell.make("new", 9)
_ONLY = Cell.make("only", 3)
_LIVE, _DEAD = Cell.make("v", 5), Cell.make(None, 5)


@pytest.mark.parametrize("read", [
    lambda coordinator: coordinator.get("T", "k", ("a", "b"), r=3),
    lambda coordinator: coordinator.get_row("T", "k", r=3),
], ids=["get", "get_row"])
@pytest.mark.parametrize("planted, converged", [
    ([{"a": _OLD}, {"a": _NEW}, {"a": _NEW}], {"a": _NEW}),
    ([{"a": _NEW, "b": _ONLY}, {"a": _NEW}, {"a": _NEW}],
     {"a": _NEW, "b": _ONLY}),
    ([{"a": _DEAD}, {"a": _LIVE}, {"a": _DEAD}], {"a": _LIVE}),
    ([{"a": _NEW}, {"a": _NEW}, {"a": _NEW}], {"a": _NEW}),
], ids=["stale-replica", "missing-column", "tombstone-ties-live",
        "nothing-to-repair"])
def test_read_repair_pushes_what_replicas_lack_and_only_then(
        read, planted, converged):
    """Both quorum reads repair through the one replica diff.  A column
    nobody holds (``b``, which the column Get asks for and merges to
    NULL) is never pushed, and replicas that agree cost no write RPC."""
    cluster = build_cluster()
    replicas = cluster.replicas_for("T", "k")
    for replica, cells in zip(replicas, planted):
        replica.engine.apply("T", "k", cells)
    run_proc(cluster, read(cluster.coordinator(0)))
    agreed = all(cells == converged for cells in planted)
    assert cluster.network.messages_sent == (3 if agreed else 6)
    cluster.run_until_idle()
    for replica in replicas:
        assert replica.engine.read_row("T", "k") == converged


@pytest.mark.parametrize("read, merge", [
    (lambda coordinator: coordinator.get("T", "k", ("a", "b", "c"), r=1),
     lambda replica: {column: merge_cells([cells[column]])
                      for cells in [replica.engine.read("T", "k",
                                                        ("a", "b", "c"))]
                      for column in cells}),
    (lambda coordinator: coordinator.get_row("T", "k", r=1),
     lambda replica: merge_rows([replica.engine.read_row("T", "k")])),
], ids=["get", "get_row"])
def test_an_r1_read_is_its_one_response_and_repairs_nothing(
        read, merge, monkeypatch):
    """At R = 1 the answer is what merging the one response would give
    (a never-written column as the NULL cell), yet no merge runs, and the
    replica diff against that replica is empty: no read-repair write,
    even while the replicas not asked disagree with it."""
    cluster = build_cluster()
    insider, _outsider = replica_and_outsider(cluster)
    own = insider.node
    own.engine.apply("T", "k", {"a": _OLD, "b": _DEAD})
    for replica in cluster.replicas_for("T", "k"):
        if replica is not own:
            replica.engine.apply("T", "k", {"a": _NEW, "c": _ONLY})
    expected = merge(own)
    merges = []
    for name in ("merge_cells", "merge_rows"):
        monkeypatch.setattr(coordinator_module, name,
                            lambda *args, name=name: merges.append(name))
    merged = run_proc(cluster, read(insider))
    cluster.run_until_idle()
    assert merged == expected
    assert merges == []
    assert cluster.network.messages_sent == 1
    assert [replica.engine.read_row("T", "k")["a"]
            for replica in cluster.replicas_for("T", "k")].count(_OLD) == 1


def test_get_row_merges_all_columns():
    cluster = build_cluster()
    replicas = cluster.replicas_for("T", "k")
    replicas[0].engine.apply("T", "k", {"a": Cell.make(1, 5)})
    replicas[1].engine.apply("T", "k", {"b": Cell.make(2, 6)})
    coordinator = cluster.coordinator(0)
    merged = run_proc(cluster, coordinator.get_row("T", "k", r=3))
    assert merged["a"].value == 1
    assert merged["b"].value == 2


# ---------------------------------------------------------------------------
# A quorum Get asks R replicas; the rest only on a hedge
# ---------------------------------------------------------------------------


def replica_and_outsider(cluster, key="k"):
    """``(a coordinator that is a replica of key, one that is not)``."""
    replicas = cluster.replicas_for("T", key)
    (outsider,) = [node for node in cluster.nodes if node not in replicas]
    return (cluster.coordinator(replicas[0].node_id),
            cluster.coordinator(outsider.node_id))


@pytest.mark.parametrize("read", [
    lambda coordinator, r: coordinator.get("T", "k", ("a",), r=r),
    lambda coordinator, r: coordinator.get_row("T", "k", r=r),
], ids=["get", "get_row"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_a_get_sends_r_rpcs(read, r):
    cluster = build_cluster()
    run_proc(cluster, read(cluster.coordinator(0), r))
    cluster.run_until_idle()
    assert cluster.network.messages_sent == r
    assert hedges_fired(cluster) == 0


@pytest.mark.parametrize("r", [1, 2])
def test_own_replica_is_asked_first_and_the_others_in_turn(r):
    cluster = build_cluster()
    replicas = cluster.replicas_for("T", "k")
    insider, outsider = replica_and_outsider(cluster)
    for _ in range(300):
        run_proc(cluster, insider.get("T", "k", ("a",), r=r))
    own, *others = [replica.requests_handled for replica in replicas]
    assert own == 300
    assert sum(others) == 300 * (r - 1)
    assert abs(others[0] - others[1]) <= 1
    for replica in replicas:
        replica.requests_handled = 0
    for _ in range(300):
        run_proc(cluster, outsider.get("T", "k", ("a",), r=r))
    handled = [replica.requests_handled for replica in replicas]
    assert sum(handled) == 300 * r
    assert max(handled) - min(handled) <= 1


def _partitioned(cluster, coordinator, victim):
    cluster.partition(coordinator.node.node_id, victim.node_id)


def _gray_slow(cluster, coordinator, victim):
    """A read takes the victim's CPU 60 ms: well past the hedge."""
    cluster.slow_node(victim.node_id, cpu_factor=200)


def _message_lost(cluster, coordinator, victim):
    """The next message sent — the first read's request, whichever
    replica it goes to — is lost; every later one arrives."""
    lose = iter([True])
    cluster.network._lost = lambda: next(lose, False)


@pytest.mark.parametrize("fault", [_partitioned, _message_lost, _gray_slow])
def test_get_with_its_chosen_replica_failing_answers_after_the_hedge(fault):
    """Three R = 1 reads by a coordinator that is no replica of the key
    take the three replicas in turn, so exactly one of them picks the
    faulty one (or loses its request): it asks the other two
    ``READ_HEDGE`` later and answers one round trip after that, not at
    ``RPC_TIMEOUT``."""
    cluster = build_cluster()
    _, outsider = replica_and_outsider(cluster)
    run_proc(cluster, outsider.put("T", "k", {"a": Cell.make(7, 5)}, w=3))
    cluster.run_until_idle()
    fault(cluster, outsider, cluster.replicas_for("T", "k")[1])
    round_trip = 1.0    # 0.2 of links, the coordinator's and a replica's CPU
    took = []
    for _ in range(3):
        start = cluster.env.now
        merged = run_proc(cluster, outsider.get("T", "k", ("a",), r=1))
        assert merged["a"] == Cell.make(7, 5)
        took.append(cluster.env.now - start)
    assert outsider.hedged_reads == 1
    (hedged,) = [elapsed for elapsed in took if elapsed > round_trip]
    assert READ_HEDGE < hedged < READ_HEDGE + 2 * round_trip < RPC_TIMEOUT


# ---------------------------------------------------------------------------
# A partial read asks the replicas that can start serving it soonest
# ---------------------------------------------------------------------------


def queue_behind_next_request(node, ms):
    """Other work reaches ``node`` while its next request is in service:
    ``ms`` on every core, booked right behind that request's charge."""
    cpu = node.cpu

    def book(duration):
        del cpu.book
        end = cpu.book(duration)
        for _ in range(node.config.cores_per_node):
            cpu.defer(ms)
        return end
    cpu.book = book


def book_every_core(node, ms):
    for _ in range(node.config.cores_per_node):
        node.cpu.defer(ms)


def asked_by_one_read(cluster, coordinator, r):
    """The replicas one partial read sends its request to."""
    before = [replica.requests_handled
              for replica in cluster.replicas_for("T", "k")]
    coordinator.scatter_read("T", "k", ("a",), r)
    cluster.env.run(until=cluster.env.now + 1.0)
    return [replica for replica, handled in zip(
        cluster.replicas_for("T", "k"), before)
        if replica.requests_handled > handled]


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("insider", [True, False], ids=["replica", "outsider"])
def test_on_an_idle_cluster_the_choice_is_own_node_then_in_turn(insider, r):
    """With nothing queued anywhere every replica ties, and ties keep
    the order: this node first when it is a replica, the others taken in
    turn."""
    cluster = build_cluster()
    coordinator = replica_and_outsider(cluster)[0 if insider else 1]
    run_proc(cluster, coordinator.put("T", "k", {"a": Cell.make(7, 5)}, w=3))
    cluster.run_until_idle()
    own = coordinator.node
    others = [replica for replica in cluster.replicas_for("T", "k")
              if replica is not own]
    for read in range(1, 7):
        turn = read % len(others)
        order = ([own] if insider else []) + others[turn:] + others[:turn]
        assert asked_by_one_read(cluster, coordinator, r) == sorted(
            order[:r], key=cluster.replicas_for("T", "k").index)
        cluster.run_until_idle()
    assert hedges_fired(cluster) == 0


def test_with_a_replica_down_the_alive_others_take_turns():
    """The turn counts only the alive replicas: with one of three down
    an outsider's R = 1 reads alternate between the other two, and an
    R = 2 read, which has no one left to skip, asks both."""
    cluster = build_cluster()
    _, outsider = replica_and_outsider(cluster)
    run_proc(cluster, outsider.put("T", "k", {"a": Cell.make(7, 5)}, w=3))
    cluster.run_until_idle()
    first, down, last = cluster.replicas_for("T", "k")
    down.mark_down()
    for read in range(1, 7):
        assert asked_by_one_read(cluster, outsider, 1) == [
            (first, last)[read % 2]]
        cluster.run_until_idle()
    assert asked_by_one_read(cluster, outsider, 2) == [first, last]
    cluster.run_until_idle()
    assert hedges_fired(cluster) == 0


@pytest.mark.parametrize("own_backlog, home", [(3.0, False), (0.15, True)])
def test_an_r1_read_leaves_a_backlogged_own_cpu_for_the_earliest_stamp(
        own_backlog, home):
    """This node's CPU is booked ahead: 3 ms, more than a round trip
    (0.2 ms on these links), or 0.15 ms, less.  Of the other two,
    ``second`` — next in turn — said on its last reply that it was
    booked 5 ms ahead, ``first`` that it was idle."""
    cluster = build_cluster()
    insider, _ = replica_and_outsider(cluster)
    own, first, second = cluster.replicas_for("T", "k")
    queue_behind_next_request(second, 5.0)
    run_proc(cluster, insider.put("T", "k", {"a": Cell.make(7, 5)}, w=3))
    stamps = cluster.network.reply_stamps
    assert stamps[own.node_id, second.node_id] > cluster.env.now + 1.0
    assert stamps[own.node_id, first.node_id] < cluster.env.now
    now = cluster.env.now
    for _ in range(own.config.cores_per_node):
        own.cpu.defer(now + own_backlog - max(own.cpu.free_at, now))
    assert own.cpu.free_at == pytest.approx(now + own_backlog)
    assert asked_by_one_read(cluster, insider, 1) == [
        own if home else first]


def test_load_booked_after_a_replicas_last_reply_is_not_seen():
    """No oracle.  The replica first in turn said on its last reply that
    it was booked 5 ms ahead, so the read is ranked; the next in turn is
    loaded 50 ms deep only *after* it last answered this coordinator.
    Its stamp ties with the third replica's, and the tie keeps the turn:
    it is the one asked."""
    cluster = build_cluster()
    _, outsider = replica_and_outsider(cluster)
    # The first partial read's turn is 1: replicas 1, 2, then 0.
    _, first, in_turn = cluster.replicas_for("T", "k")
    queue_behind_next_request(first, 5.0)
    run_proc(cluster, outsider.put("T", "k", {"a": Cell.make(7, 5)}, w=3))
    assert cluster.network.reply_stamps[
        outsider.node.node_id, first.node_id] > cluster.env.now + 1.0
    book_every_core(in_turn, 50.0)
    assert asked_by_one_read(cluster, outsider, 1) == [in_turn]


def test_a_reply_stamps_its_replicas_free_at_when_its_handler_returned():
    """The replica's CPU is booked 5 ms behind the read: its reply says
    so on arrival.  A loopback crosses no link and stamps nothing."""
    cluster = build_cluster()
    insider, outsider = replica_and_outsider(cluster)
    replica = cluster.replicas_for("T", "k")[1]
    queue_behind_next_request(replica, 5.0)
    outsider.scatter_read("T", "k", ("a",), 1)
    cluster.run_until_idle()
    stamp = cluster.network.reply_stamps[outsider.node.node_id,
                                         replica.node_id]
    assert stamp == replica.cpu.free_at > 5.0
    own = insider.node.node_id
    run_proc(cluster, insider.get("T", "k", ("a",), r=1))
    assert (own, own) not in cluster.network.reply_stamps


def test_a_dropped_reply_leaves_the_stamp_as_it_was():
    """The request is served, but the link is cut before the reply
    arrives: the coordinator learns nothing."""
    cluster = build_cluster()
    _, outsider = replica_and_outsider(cluster)
    run_proc(cluster, outsider.put("T", "k", {"a": Cell.make(7, 5)}, w=3))
    cluster.run_until_idle()
    replica = cluster.replicas_for("T", "k")[1]
    key = (outsider.node.node_id, replica.node_id)
    stamp = cluster.network.reply_stamps[key]
    queue_behind_next_request(replica, 5.0)
    handled = replica.requests_handled
    outsider.scatter_read("T", "k", ("a",), 1)
    cluster.env.run(until=cluster.env.now + 0.2)   # served, not answered
    assert replica.requests_handled == handled + 1
    cluster.partition(*key)
    cluster.run_until_idle()
    assert cluster.network.messages_dropped == 1
    assert cluster.network.reply_stamps[key] == stamp


def test_the_hedge_asks_exactly_the_replicas_the_ranking_skipped():
    """The ranking sends an R = 1 read to ``first`` (see above), whose
    link is cut: the hedge asks this node and ``second``, once each."""
    cluster = build_cluster()
    insider, _ = replica_and_outsider(cluster)
    own, first, second = cluster.replicas_for("T", "k")
    queue_behind_next_request(second, 5.0)
    run_proc(cluster, insider.put("T", "k", {"a": Cell.make(7, 5)}, w=3))
    cluster.partition(own.node_id, first.node_id)
    book_every_core(own, 3.0)
    before = [replica.requests_handled for replica in (own, first, second)]
    sent = cluster.network.messages_sent
    collector = insider.scatter_read("T", "k", ("a",), 1)
    (response,) = cluster.env.run(until=collector.wait(1))
    assert response.cells["a"] == Cell.make(7, 5)
    assert insider.hedged_reads == 1
    assert cluster.network.messages_sent - sent == 3
    assert [replica.requests_handled - handled for replica, handled
            in zip((own, first, second), before)] == [1, 0, 1]


def _ranked_by_selection(order, ready, required):
    """The R-of-N ranking as ``Coordinator._scatter`` made it before it
    was one stable sort, kept as the reference: ``required`` rounds of
    moving the earliest remaining replica (the first of its equals) to
    the front.  Returns ``(asked, skipped)``."""
    order, ready = list(order), list(ready)
    for slot in range(required):
        best = ready.index(min(ready[slot:]), slot)
        if best != slot:
            order.insert(slot, order.pop(best))
            ready.insert(slot, ready.pop(best))
    return order[:required], order[required:]


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("insider", [True, False], ids=["replica", "outsider"])
def test_the_one_pass_ranking_picks_what_the_selection_loop_picked(
        insider, r):
    """Over seeded free-ats, stamps and turns, drawn from a few values
    so that ties are common, a partial read asks the replicas the old
    selection loop would have asked, in its order, and hedges to the
    rest in its order."""
    round_trip = 2 * 0.1    # the Fixed(0.1) replica link, both ways
    choices = (None, -1.0, 0.0, 0.1, 0.2, 0.3, 0.4)
    for seed in range(100):
        rng = random.Random(seed)
        cluster = build_cluster()
        coordinator = replica_and_outsider(cluster)[0 if insider else 1]
        own = coordinator.node
        replicas = cluster.replicas_for("T", "k")
        others = [replica for replica in replicas if replica is not own]
        now = cluster.env.now
        book_every_core(own, rng.choice((0.0, 0.1, 0.2, 0.4)))
        stamps = cluster.network.reply_stamps
        for replica in others:
            offset = rng.choice(choices)
            if offset is not None:
                stamps[own.node_id, replica.node_id] = now + offset
        coordinator._partial_reads = rng.randrange(6)
        turn = (coordinator._partial_reads + 1) % len(others)
        order = ([own] if insider else []) + others[turn:] + others[:turn]
        ready = [max(own.cpu.free_at, now) if replica is own
                 else max(stamps.get((own.node_id, replica.node_id), now),
                          now) + round_trip
                 for replica in order]
        # Send nothing: record who each fan-out asks, and let the read
        # go unanswered so that its hedge asks the rest.
        fanouts = []

        def collect(nodes, request, into=None):
            fanouts.append(list(nodes))
            if into is None:
                return ResponseCollector(cluster.env, len(nodes))
            into.expect(len(nodes))
            return into

        coordinator._collect = collect
        coordinator.scatter_read("T", "k", ("a",), r)
        cluster.env.run(until=now + READ_HEDGE + 1.0)
        assert fanouts == list(_ranked_by_selection(order, ready, r)), seed


def test_get_fails_at_creation_plus_rpc_timeout_when_fewer_than_r_answer():
    """The hedge does not extend the reply deadline: the two replicas a
    majority Get can reach at all — one asked at once, one by the hedge
    — are one short, and the Get raises when its collector is
    ``RPC_TIMEOUT`` old."""
    cluster = build_cluster()
    insider, _ = replica_and_outsider(cluster)
    own, second, third = cluster.replicas_for("T", "k")
    cluster.partition(own.node_id, second.node_id)
    cluster.partition(own.node_id, third.node_id)
    created = []
    real = type(insider)._scatter

    def scatter(*args, **kwargs):
        created.append(cluster.env.now)
        return real(insider, *args, **kwargs)

    insider._scatter = scatter
    with pytest.raises(QuorumError) as caught:
        run_proc(cluster, insider.get("T", "k", ("a",), r=2))
    assert caught.value.received == 1
    assert cluster.env.now == created[0] + RPC_TIMEOUT
    assert insider.hedged_reads == 1
    assert cluster.network.messages_sent == 3


def test_get_succeeds_when_r_alive_replicas_answer_whichever_were_asked():
    """Any R of the alive replicas will do: with one down the read goes
    to the other two, with nothing left to hedge to."""
    cluster = build_cluster()
    insider, outsider = replica_and_outsider(cluster)
    run_proc(cluster, insider.put("T", "k", {"a": Cell.make(7, 5)}, w=3))
    cluster.run_until_idle()
    sent = cluster.network.messages_sent
    cluster.replicas_for("T", "k")[1].mark_down()
    for r in (1, 2):
        merged = run_proc(cluster, outsider.get("T", "k", ("a",), r=r))
        assert merged["a"] == Cell.make(7, 5)
    assert cluster.network.messages_sent - sent == 3
    with pytest.raises(UnavailableError):
        run_proc(cluster, outsider.get("T", "k", ("a",), r=3))


def test_failure_free_run_fires_no_hedge():
    """Four closed-loop clients on the default (jittered) links: no
    healthy read is ``READ_HEDGE`` late."""
    cluster = Cluster(ClusterConfig(seed=11))
    cluster.create_table("T")
    env = cluster.env

    def client(handle, index):
        for i in range(300):
            key = f"k{(index * 5 + i) % 30}"
            if i % 3:
                yield from handle.get("T", key, ("c",), r=1 + i % 2)
            else:
                yield from handle.put("T", key, {"c": i})

    for index in range(4):
        env.process(client(cluster.client(), index))
    cluster.run_until_idle()
    assert hedges_fired(cluster) == 0
    assert cluster.network.messages_dropped == 0


def test_index_read_scatters_to_all_nodes():
    cluster = build_cluster()
    cluster.create_index("T", "sec")
    coordinator = cluster.coordinator(0)
    for i in range(6):
        run_proc(cluster, coordinator.put(
            "T", f"k{i}", {"sec": Cell.make("target" if i % 2 else "other",
                                            10 + i)}, w=3))
    merged = run_proc(cluster,
                      coordinator.index_read("T", "sec", "target", ("sec",)))
    assert sorted(merged) == ["k1", "k3", "k5"]


def test_index_read_excludes_stale_values():
    cluster = build_cluster()
    cluster.create_index("T", "sec")
    coordinator = cluster.coordinator(0)
    run_proc(cluster, coordinator.put("T", "k", {"sec": Cell.make("A", 10)}, w=3))
    run_proc(cluster, coordinator.put("T", "k", {"sec": Cell.make("B", 20)}, w=3))
    merged = run_proc(cluster, coordinator.index_read("T", "sec", "A", ("sec",)))
    assert merged == {}
    merged = run_proc(cluster, coordinator.index_read("T", "sec", "B", ("sec",)))
    assert sorted(merged) == ["k"]
