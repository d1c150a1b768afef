"""Tests for the simulated network: RPC, partitions, loss, latency."""

import pytest

from repro.cluster import Cluster
from repro.cluster.messages import (
    ReadRequest,
    ReadResponse,
    ReadRowRequest,
    WriteAck,
    WriteRequest,
)
from repro.cluster.coordinator import ResponseCollector
from repro.cluster.network import CLIENT
from repro.common import Cell
from repro.errors import ClusterError, NoSuchTableError
from repro.sim.kernel import Event

from tests.cluster.conftest import make_config


def build_cluster(**overrides):
    cluster = Cluster(make_config(**overrides))
    cluster.create_table("T")
    return cluster


def send(cluster, src_id, dst_node, request) -> ResponseCollector:
    """Send one RPC; the collector its reply goes to (on no deadline
    queue: a dropped message leaves it waiting)."""
    collector = ResponseCollector(cluster.env, 1)
    cluster.network.rpc(src_id, dst_node, collector, request)
    return collector


def rpc_once(cluster, src_id, dst_node, request, horizon=500.0):
    """Send one RPC and return (response or None, completion time)."""
    collector = send(cluster, src_id, dst_node, request)
    result = {}

    def waiter():
        (response,) = yield collector.wait(1)
        result["response"] = response
        result["time"] = cluster.env.now

    cluster.env.process(waiter())
    cluster.env.run(until=horizon)
    return result.get("response"), result.get("time")


def test_rpc_round_trip_write():
    cluster = build_cluster()
    node = cluster.nodes[0]
    request = WriteRequest("T", "k", {"a": Cell.make(1, 10)})
    response, when = rpc_once(cluster, 1, node, request)
    assert isinstance(response, WriteAck)
    assert node.engine.read("T", "k", ("a",))["a"] == Cell.make(1, 10)
    # fixed 0.1ms each way + 0.025ms write + 0.008ms per-cell
    assert when == pytest.approx(0.2 + 0.025 + 0.008)


def test_rpc_read_response():
    cluster = build_cluster()
    node = cluster.nodes[0]
    node.engine.apply("T", "k", {"a": Cell.make(5, 3)})
    response, _ = rpc_once(cluster, 2, node, ReadRequest("T", "k", ("a",)))
    assert isinstance(response, ReadResponse)
    assert response.cells["a"] == Cell.make(5, 3)


def test_row_read_is_priced_by_width_and_copies_the_row_once():
    """A whole-row read costs ``read_cost(cells held)`` — an absent row
    as one cell — and makes one ``read_row`` (the answer, taken after
    the service delay): pricing it is a ``len``, not a second copy."""
    cluster = build_cluster()
    node = cluster.nodes[0]
    cells = {column: Cell.make(column, 3) for column in "abcde"}
    node.engine.apply("T", "wide", cells)
    copies = []
    real = node.engine.read_row
    node.engine.read_row = lambda *args: copies.append(args) or real(*args)
    service = cluster.config.service
    for key, held in (("wide", cells), ("absent", {})):
        start = cluster.env.now
        response, when = rpc_once(cluster, 2, node, ReadRowRequest("T", key),
                                  horizon=start + 500.0)
        assert response.cells == held
        assert when - start == pytest.approx(
            0.2 + service.read_cost(max(1, len(held))))
    assert copies == [("T", "wide"), ("T", "absent")]


def test_rpc_to_down_node_never_fires():
    cluster = build_cluster()
    node = cluster.nodes[0]
    node.mark_down()
    response, when = rpc_once(cluster, 1, node,
                              WriteRequest("T", "k", {"a": Cell.make(1, 0)}))
    assert response is None and when is None
    assert cluster.network.messages_dropped == 1


def test_rpc_through_partition_dropped():
    cluster = build_cluster()
    cluster.partition(1, 0)
    response, _ = rpc_once(cluster, 1, cluster.nodes[0],
                           ReadRequest("T", "k", ("a",)))
    assert response is None
    cluster.heal_partition(1, 0)
    response, _ = rpc_once(cluster, 1, cluster.nodes[0],
                           ReadRequest("T", "k", ("a",)),
                           horizon=cluster.env.now + 500.0)
    assert response is not None


def test_partition_is_symmetric():
    cluster = build_cluster()
    cluster.partition(0, 1)
    assert cluster.network.is_partitioned(1, 0)
    assert cluster.network.is_partitioned(0, 1)
    assert not cluster.network.is_partitioned(0, 2)


def test_heal_all():
    cluster = build_cluster()
    cluster.partition(0, 1)
    cluster.partition(2, 3)
    cluster.network.heal_all()
    assert not cluster.network.is_partitioned(0, 1)
    assert not cluster.network.is_partitioned(2, 3)


def test_message_loss_drops_some():
    cluster = build_cluster()
    cluster.network.message_loss = 0.5
    node = cluster.nodes[0]
    delivered = 0
    for i in range(60):
        response, _ = rpc_once(cluster, 1, node,
                               ReadRequest("T", "k", ("a",)),
                               horizon=cluster.env.now + 500.0)
        if response is not None:
            delivered += 1
    # With 50% per-message loss a round trip survives ~25% of the time.
    assert 2 < delivered < 35
    assert cluster.network.messages_dropped > 0


def test_handler_exception_fails_rpc_event():
    cluster = build_cluster()
    node = cluster.nodes[0]
    collector = send(cluster, 1, node, ReadRequest("UNKNOWN", "k", ("a",)))
    caught = []

    def waiter():
        try:
            yield collector.wait(1)
        except NoSuchTableError as exc:
            caught.append(exc)

    cluster.env.process(waiter())
    cluster.env.run(until=10.0)
    assert len(caught) == 1


def test_client_link_used_for_client_endpoint():
    from repro.sim.latency import Fixed

    cluster = build_cluster(client_link=Fixed(5.0), replica_link=Fixed(0.1))
    assert cluster.network.one_way_delay(CLIENT, 0) == 5.0
    assert cluster.network.one_way_delay(0, CLIENT) == 5.0
    assert cluster.network.one_way_delay(0, 1) == 0.1


def test_a_slowed_link_draws_each_delay_through_one_way_delay():
    """While a gray slowdown is armed, a remote RPC's request and reply
    delays are exactly what ``one_way_delay`` draws for its two hops,
    in that order off the network's stream, slowdowns applied."""
    from repro.sim.latency import ShiftedExponential

    cluster = build_cluster(
        replica_link=ShiftedExponential(base=0.1, jitter_mean=0.05))
    network = cluster.network
    network.set_slowdown(0, 3.0)
    network.set_slowdown(1, 1.5)
    node = cluster.nodes[0]
    served = []
    real = node.dispatch
    node.dispatch = lambda request: served.append(cluster.env.now) or real(
        request)
    start = cluster.env.now
    state = network._rng.getstate()
    response, when = rpc_once(cluster, 1, node, ReadRequest("T", "k", ("a",)))
    assert response is not None
    network._rng.setstate(state)
    forward = network.one_way_delay(1, 0)
    back = network.one_way_delay(0, 1)
    assert min(forward, back) >= 0.1 * 3.0 * 1.5
    assert served == [start + forward]
    assert when == start + forward + cluster.config.service.read_cost(1) + back


def test_messages_counted():
    cluster = build_cluster()
    rpc_once(cluster, 1, cluster.nodes[0], ReadRequest("T", "k", ("a",)))
    assert cluster.network.messages_sent == 1


def test_request_dropped_when_destination_goes_down_in_flight():
    cluster = build_cluster()
    node = cluster.nodes[0]
    # Up at send, down when the request lands 0.1 ms later.
    cluster.env.timeout(0.05).add_callback(lambda _t: node.mark_down())
    response, _ = rpc_once(cluster, 1, node,
                           WriteRequest("T", "k", {"a": Cell.make(1, 10)}))
    assert response is None
    assert cluster.network.messages_dropped == 1
    assert node.requests_handled == 0
    assert node.engine.read("T", "k", ("a",))["a"] is None


def test_reply_dropped_when_partition_appears_while_handler_runs():
    cluster = build_cluster()
    node = cluster.nodes[0]
    # Delivered at 0.1, served until 0.133, reply due at 0.233: cut the
    # link while the reply is on the wire.
    cluster.env.timeout(0.15).add_callback(
        lambda _t: cluster.partition(1, 0))
    response, _ = rpc_once(cluster, 1, node,
                           WriteRequest("T", "k", {"a": Cell.make(1, 10)}))
    assert response is None
    assert cluster.network.messages_dropped == 1
    # The request itself got through: the write was applied.
    assert node.requests_handled == 1
    assert node.engine.read("T", "k", ("a",))["a"] == Cell.make(1, 10)


def test_unknown_request_type_fails_rpc_event():
    cluster = build_cluster()
    collector = send(cluster, 1, cluster.nodes[0], object())
    caught = []

    def waiter():
        try:
            yield collector.wait(1)
        except ClusterError as exc:
            caught.append(str(exc))

    cluster.env.process(waiter())
    cluster.env.run(until=10.0)
    assert caught == ["unknown request type object"]


def count_events(cluster, request, src_id=1):
    """Kernel events popped for one delivered RPC to node 0, by type
    name (a ``call_at`` timer is popped as its callback, a bound
    method)."""
    popped = []
    cluster.env.set_event_watcher(
        lambda event: popped.append(type(event).__name__))
    collector = send(cluster, src_id, cluster.nodes[0], request)
    cluster.run_until_idle()
    assert len(collector.responses) == 1
    return popped


def test_delivered_read_rpc_is_exactly_three_kernel_events():
    """Request delay, service time, reply delay — the events that move
    the clock — and nothing else: no process start or completion, and
    the reply goes straight into its collector."""
    cluster = build_cluster()
    assert count_events(cluster, ReadRequest("T", "k", ("a",))) == [
        "method", "method", "method"]


def test_delivered_write_rpc_is_three_kernel_events():
    """The write's deferred CPU work is booked on the node's CPU, not
    scheduled: it costs no event of its own."""
    cluster = build_cluster()
    request = WriteRequest("T", "k", {"a": Cell.make(1, 10)})
    assert count_events(cluster, request) == ["method", "method", "method"]
    node = cluster.nodes[0]
    assert node.busy_time == (cluster.config.service.write_cost(1)
                              + cluster.config.service.write_background)


@pytest.fixture
def events_made(monkeypatch):
    """Every ``Event`` (of any class) constructed while the test runs,
    by class name, counted by patching each class's constructor (once
    per object: not again where it chains to its base's)."""
    made = []

    def counting(original):
        def __init__(self, *args, **kwargs):
            if type(self).__init__ is __init__:
                made.append(type(self).__name__)
            original(self, *args, **kwargs)
        return __init__

    classes = [Event]
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        if "__init__" in vars(cls):
            monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    return made


@pytest.mark.parametrize("src_id", [1, 0], ids=["remote", "loopback"])
def test_a_delivered_rpc_creates_no_event(events_made, src_id):
    """Its timers are ``call_at`` callbacks and its reply goes straight
    into the collector: the call record is its only object on the
    heap, and no event is made, for a remote RPC or a loopback."""
    cluster = build_cluster()
    collector = ResponseCollector(cluster.env, 1)
    events_made.clear()
    cluster.network.rpc(src_id, cluster.nodes[0], collector,
                        WriteRequest("T", "k", {"a": Cell.make(1, 10)}))
    cluster.run_until_idle()
    assert [type(response) for response in collector.responses] == [WriteAck]
    assert not events_made


# -- loopback: a node serving its own request in process -------------------


def test_loopback_read_is_one_kernel_event_its_cpu_charge():
    """A request a node sends to itself crosses no link: no request
    timer, no reply timer, only the handler's CPU charge."""
    cluster = build_cluster()
    assert count_events(cluster, ReadRequest("T", "k", ("a",)),
                        src_id=0) == ["method"]


def test_loopback_read_completes_after_exactly_its_service_time():
    cluster = build_cluster()
    node = cluster.nodes[0]
    node.engine.apply("T", "k", {"a": Cell.make(5, 3)})
    response, when = rpc_once(cluster, 0, node, ReadRequest("T", "k", ("a",)))
    assert response.cells["a"] == Cell.make(5, 3)
    assert when == cluster.config.service.read_cost(1)
    assert cluster.network.messages_sent == 1


def test_loopback_write_is_one_kernel_event():
    cluster = build_cluster()
    request = WriteRequest("T", "k", {"a": Cell.make(1, 10)})
    # The charge that acknowledges it; the deferred CPU work is booked.
    assert count_events(cluster, request, src_id=0) == ["method"]
    assert cluster.nodes[0].engine.read("T", "k", ("a",))["a"] == Cell.make(
        1, 10)


def test_loopback_ignores_link_loss_and_slowdown_and_draws_nothing():
    """Loss and a gray-slow link act on messages; a loopback is none,
    so it neither drops nor slows, and takes no draw from the network's
    random stream."""
    cluster = build_cluster()
    node = cluster.nodes[0]
    cluster.network.message_loss = 1.0  # every message on a link lost
    cluster.network.set_slowdown(0, 10.0)
    state = cluster.network._rng.getstate()
    response, when = rpc_once(cluster, 0, node, ReadRequest("T", "k", ("a",)))
    assert isinstance(response, ReadResponse)
    assert when == cluster.config.service.read_cost(1)
    assert cluster.network._rng.getstate() == state
    assert cluster.network.messages_dropped == 0


def test_loopback_still_pays_a_slow_cpu():
    cluster = build_cluster()
    node = cluster.nodes[0]
    node.set_cpu_slowdown(4.0)
    _, when = rpc_once(cluster, 0, node, ReadRequest("T", "k", ("a",)))
    assert when == pytest.approx(4.0 * cluster.config.service.read_cost(1))


def test_a_slow_cpu_prices_every_charge_once():
    """A gray-slow CPU multiplies each booking once, in the frame that
    books it: a remote write's charge, that write's deferred background
    work and a coordinator charge each take ``factor`` times their
    length and add that much to ``busy_time``; back at 1.0, their
    length."""
    cluster = build_cluster(cores_per_node=1)
    node, env = cluster.nodes[0], cluster.env
    service = cluster.config.service
    write, background = service.write_cost(1), service.write_background

    def coordinate():
        yield node.cpu.hold(service.coordinator)
        return env.now

    for stamp, factor in enumerate((4.0, 1.0), start=1):
        node.set_cpu_slowdown(factor)
        start, busy = env.now, node.busy_time
        request = WriteRequest("T", "k", {"a": Cell.make(stamp, stamp)})
        response, when = rpc_once(cluster, 1, node, request,
                                  horizon=start + 100.0)
        assert isinstance(response, WriteAck)
        assert when - start == pytest.approx(0.2 + factor * write)
        assert node.cpu.free_at - start == pytest.approx(
            0.1 + factor * (write + background))
        assert node.busy_time - busy == pytest.approx(
            factor * (write + background))
        start, busy = env.now, node.busy_time
        assert env.run(until=env.process(coordinate())) - start == \
            pytest.approx(factor * service.coordinator)
        assert node.busy_time - busy == pytest.approx(
            factor * service.coordinator)


def test_loopback_to_a_down_node_is_dropped_and_counted():
    cluster = build_cluster()
    node = cluster.nodes[0]
    node.mark_down()
    response, when = rpc_once(cluster, 0, node,
                              WriteRequest("T", "k", {"a": Cell.make(1, 0)}))
    assert response is None and when is None
    assert cluster.network.messages_sent == 1
    assert cluster.network.messages_dropped == 1
    assert node.requests_handled == 0
