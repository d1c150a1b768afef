"""Tests for the opt-in tracing facility."""

import pytest

from repro.cluster import Cluster
from repro.cluster.tracing import Tracer
from repro.sim import Environment
from repro.views import ViewDefinition

from tests.cluster.conftest import make_config


# ---------------------------------------------------------------------------
# Tracer mechanics
# ---------------------------------------------------------------------------


def test_tracer_records_events():
    env = Environment(initial_time=5.0)
    tracer = Tracer(env)
    tracer.emit("cat", "hello", key="k")
    (event,) = tracer.events()
    assert event.at == 5.0
    assert event.category == "cat"
    assert event.fields == {"key": "k"}


def test_tracer_ring_buffer_bounds_memory():
    env = Environment()
    tracer = Tracer(env, capacity=10)
    for i in range(25):
        tracer.emit("cat", f"e{i}")
    assert len(tracer.events()) == 10
    assert tracer.emitted == 25
    assert tracer.events()[0].message == "e15"


def test_tracer_category_filter_and_counts():
    env = Environment()
    tracer = Tracer(env)
    tracer.emit("a", "x")
    tracer.emit("b", "y")
    tracer.emit("a", "z")
    assert len(tracer.events("a")) == 2
    assert tracer.counts() == {"a": 2, "b": 1}


def test_tracer_format_and_dump():
    env = Environment()
    tracer = Tracer(env)
    tracer.emit("cat", "msg", n=1)
    text = tracer.dump()
    assert "cat" in text and "msg" in text and "n=1" in text


def test_tracer_clear():
    env = Environment()
    tracer = Tracer(env)
    tracer.emit("a", "x")
    tracer.clear()
    assert tracer.events() == []
    assert tracer.emitted == 1


def test_tracer_capacity_validated():
    with pytest.raises(ValueError):
        Tracer(Environment(), capacity=0)


# ---------------------------------------------------------------------------
# Cluster integration
# ---------------------------------------------------------------------------


def test_tracing_disabled_by_default():
    cluster = Cluster(make_config())
    assert not cluster.tracer.enabled
    cluster.trace("x", "no-op when disabled")  # must not raise
    assert cluster.tracer.events() == [] and cluster.tracer.emitted == 0


def test_enable_tracing_is_idempotent():
    cluster = Cluster(make_config())
    tracer = cluster.enable_tracing()
    assert cluster.enable_tracing() is tracer


def test_view_maintenance_emits_traces():
    cluster = Cluster(make_config())
    cluster.create_table("T")
    cluster.create_view(ViewDefinition("V", "T", "vk", ("m",)))
    cluster.enable_tracing()
    client = cluster.sync_client(0)
    client.put("T", "k", {"vk": "a", "m": 1})
    client.put("T", "k", {"vk": "b"})
    client.settle()
    other = cluster.sync_client(1)
    other.put("T", "k", {"vk": "c"})
    other.settle()
    counts = cluster.tracer.counts()
    assert counts.get("base_put", 0) == 3
    assert counts.get("propagation", 0) >= 3
    assert counts.get("propagate", 0) >= 3   # view-key update branches
    # How each move found its live row: the first insert's Put found
    # its chain pristine and skipped the base read, and its record
    # anchors virtually (no line); the coordinator that made "a" live
    # still held it, and the other coordinator had to walk (GetLiveKey).
    chain = cluster.tracer.events("chain")
    assert [(event.message, event.fields["live"]) for event in chain] == [
        ("base read skipped", None), ("live row held", "a"),
        ("live row resolved", "b")]
    assert chain[2].fields["hops"] == 1
    # The trace tells the story: the second put found "a" live and
    # moved live-ness to "b".
    moves = cluster.tracer.events("propagate")
    assert any(event.fields.get("new_key") == "b"
               and event.fields.get("live_key") == "a" for event in moves)


def test_session_blocking_traced():
    from repro.sim.latency import Fixed

    cluster = Cluster(make_config(propagation_delay=Fixed(10.0)))
    cluster.create_table("T")
    cluster.create_view(ViewDefinition("V", "T", "vk"))
    cluster.enable_tracing()
    client = cluster.client()
    env = cluster.env

    def scenario():
        client.begin_session()
        yield from client.put("T", "k", {"vk": "a"}, 2)
        yield from client.get_view("V", "a", ["B"], 2)
        client.end_session()

    env.run(until=env.process(scenario()))
    cluster.run_until_idle()
    blocked = cluster.tracer.events("session")
    assert len(blocked) == 1
    assert blocked[0].fields["pending"] == 1


def test_tracer_evicts_oldest_first_at_capacity():
    """The ring buffer drops events strictly in arrival order."""
    env = Environment()
    tracer = Tracer(env, capacity=3)
    for i in range(5):
        tracer.emit("cat", f"e{i}")
    assert [event.message for event in tracer.events()] == ["e2", "e3", "e4"]
    assert tracer.emitted == 5  # the counter survives evictions
    tracer.emit("cat", "e5")
    assert [event.message for event in tracer.events()] == ["e3", "e4", "e5"]
    assert tracer.emitted == 6
