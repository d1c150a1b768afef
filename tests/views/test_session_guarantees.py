"""Integration tests for Section V session guarantees through the client."""

import pytest

from repro.cluster import Cluster
from repro.errors import SessionError
from repro.sim.latency import Fixed
from repro.views import ViewDefinition

from tests.views.conftest import make_config
from tests.views.test_retry_backoff import _fail_rounds_for


def build(**overrides):
    cluster = Cluster(make_config(**overrides))
    cluster.create_table("T")
    cluster.create_view(ViewDefinition("V", "T", "vk", ("m",)))
    return cluster


def test_session_requires_views():
    cluster = Cluster(make_config())
    cluster.create_table("T")
    client = cluster.sync_client()
    with pytest.raises(SessionError):
        client.begin_session()


def test_session_read_your_own_propagation():
    """A Get issued immediately after a Put, in a session, must see the
    Put's effect even though propagation is asynchronous."""
    cluster = build(propagation_delay=Fixed(5.0))
    client = cluster.client()
    env = cluster.env
    results = {}

    def scenario():
        client.begin_session()
        yield from client.put("T", "k", {"vk": "a", "m": "x"}, 2)
        rows = yield from client.get_view("V", "a", ["m"], 2)
        results["rows"] = rows
        results["when"] = env.now
        client.end_session()

    process = env.process(scenario())
    env.run(until=process)
    assert [r["m"] for r in results["rows"]] == ["x"]
    # The Get blocked until the ~5ms propagation finished.
    assert results["when"] > 5.0


def test_without_session_get_can_miss_own_put():
    """The control: without a session and with a slow propagation, an
    immediate view read misses the row."""
    cluster = build(propagation_delay=Fixed(50.0))
    client = cluster.client()
    env = cluster.env
    results = {}

    def scenario():
        yield from client.put("T", "k", {"vk": "a", "m": "x"}, 2)
        rows = yield from client.get_view("V", "a", ["m"], 2)
        results["rows"] = rows

    process = env.process(scenario())
    env.run(until=process)
    assert results["rows"] == []
    cluster.run_until_idle()


def test_session_blocking_shrinks_with_client_delay():
    """Figure 7's mechanism: the longer the client waits between Put and
    Get, the less time the session barrier blocks."""
    def pair_latency(gap):
        cluster = build(propagation_delay=Fixed(8.0))
        client = cluster.client()
        env = cluster.env
        measured = {}

        def scenario():
            client.begin_session()
            start = env.now
            yield from client.put("T", "k", {"vk": "a", "m": 1}, 2)
            yield env.timeout(gap)
            yield from client.get_view("V", "a", ["m"], 2)
            measured["latency"] = env.now - start - gap

        process = env.process(scenario())
        env.run(until=process)
        cluster.run_until_idle()
        return measured["latency"]

    assert pair_latency(0.0) > pair_latency(20.0)


def test_session_is_per_view():
    cluster = build(propagation_delay=Fixed(10.0))
    cluster.create_view(ViewDefinition("V2", "T", "other"))
    client = cluster.client()
    env = cluster.env
    times = {}

    def scenario():
        client.begin_session()
        yield from client.put("T", "k", {"vk": "a"}, 2)
        start = env.now
        # V2 is keyed on a different column; the Put created no pending
        # propagation for it, so this Get must not block.
        yield from client.get_view("V2", "whatever", ["B"], 2)
        times["v2"] = env.now - start

    process = env.process(scenario())
    env.run(until=process)
    cluster.run_until_idle()
    assert times["v2"] < 5.0


def test_session_isolated_between_clients():
    """Another session's Put must not block this session's Get."""
    cluster = build(propagation_delay=Fixed(30.0))
    writer = cluster.client(coordinator_id=0)
    reader = cluster.client(coordinator_id=0)
    env = cluster.env
    times = {}

    def write_side():
        writer.begin_session()
        yield from writer.put("T", "w", {"vk": "a"}, 2)

    def read_side():
        reader.begin_session()
        yield env.timeout(1.0)
        start = env.now
        yield from reader.get_view("V", "a", ["B"], 2)
        times["read"] = env.now - start

    wp = env.process(write_side())
    rp = env.process(read_side())
    env.run(until=wp)
    env.run(until=rp)
    cluster.run_until_idle()
    assert times["read"] < 5.0


def test_another_clients_wedged_record_does_not_hold_the_barrier(
        monkeypatch):
    """Section V promises a session its *own* propagations.  Another
    client's record on the same coordinator fails every round until
    the retry budget abandons it (about 1.3 s); the session's Put and
    view read behind it must not wait for that."""
    cluster = build()
    _fail_rounds_for(monkeypatch, cluster, ["wedged"])
    other = cluster.client(coordinator_id=1)
    client = cluster.client(coordinator_id=1)
    env = cluster.env
    results = {}

    def scenario():
        yield from other.put("T", "wedged", {"vk": "w"}, 2)
        client.begin_session()
        yield from client.put("T", "mine", {"vk": "a", "m": "x"}, 2)
        start = env.now
        results["rows"] = yield from client.get_view("V", "a", ["m"], 2)
        results["read"] = env.now - start
        client.end_session()

    process = env.process(scenario())
    env.run(until=process)
    cluster.run_until_idle()
    assert [r["m"] for r in results["rows"]] == ["x"]
    assert results["read"] < 50.0
    assert cluster.view_manager.abandoned_propagations == 1


def test_session_get_on_other_coordinator_rejected():
    cluster = build()
    client = cluster.client(coordinator_id=0)
    env = cluster.env

    def scenario():
        session = client.begin_session()
        yield from client.put("T", "k", {"vk": "a"}, 2)
        # Simulate the client wandering to another coordinator while
        # keeping its session: the manager must reject the combination.
        other = cluster.coordinator(1)
        manager = cluster.view_manager
        with pytest.raises(SessionError):
            yield from manager.view_get(other, "V", "a", ("B",), 1,
                                        session=session)

    process = env.process(scenario())
    env.run(until=process)
    cluster.run_until_idle()


def test_session_get_survives_crashed_propagation():
    """Regression: a coordinator crash that loses the session's pending
    propagation must *release* the barrier, not raise the propagation's
    ``CoordinatorCrashError`` into the client's Get.  The client then
    simply observes the (diverged) view — the row is missing until the
    scrubber heals it."""
    from repro.errors import NodeDownError, QuorumError
    from repro.scenarios import lose_propagations

    cluster = build(propagation_delay=Fixed(5.0))
    loss = lose_propagations(cluster, 1, 10.0)
    client = cluster.client(coordinator_id=0)
    env = cluster.env
    results = {}

    def scenario():
        client.begin_session()
        yield from client.put("T", "k", {"vk": "a", "m": "x"}, 2)
        # The Get blocks in the barrier while the crash fires.  The
        # coordinator itself is down for a while after the crash, so a
        # real client would retry — only transient availability errors
        # are expected here, never the crash of the background work.
        for _ in range(20):
            try:
                rows = yield from client.get_view("V", "a", ["m"], 2)
            except (NodeDownError, QuorumError):
                yield env.timeout(2.0)
                continue
            results["rows"] = rows
            break
        client.end_session()

    process = env.process(scenario())
    env.run(until=process)
    loss.stop()
    cluster.run_until_idle()
    assert results["rows"] == []
    assert cluster.view_manager.lost_propagations == 1


def test_end_session_clears_state():
    cluster = build()
    client = cluster.sync_client()
    client.begin_session()
    assert client.handle.session is not None
    client.end_session()
    assert client.handle.session is None
