"""Tests for the propagation lock service (Section IV-F)."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment
from repro.views import LockService


@pytest.fixture
def env():
    return Environment()


def test_holders_of_one_lock_are_granted_in_fifo_order(env):
    service = LockService(env)
    log = []

    def holder(name, arrive):
        yield env.timeout(arrive)
        yield from service.acquire("V", "k")
        log.append((name, env.now))
        yield env.timeout(5.0)
        service.release("V", "k")

    env.process(holder("first", 0.0))
    env.process(holder("third", 2.0))
    env.process(holder("second", 1.0))
    env.run()
    assert log == [("first", 0.0), ("second", 5.0), ("third", 10.0)]
    assert service.max_queue_depth == 2


def test_release_without_hold_rejected(env):
    service = LockService(env)

    def proc():
        yield from service.acquire("V", "k")
        service.release("V", "k")
        with pytest.raises(SimulationError):
            service.release("V", "k")

    env.run(until=env.process(proc()))
    # A key nobody ever locked is rejected the same way.
    with pytest.raises(SimulationError):
        service.release("V", "never-locked")


def test_lock_service_keys_are_independent(env):
    service = LockService(env)
    log = []

    def proc(view, key):
        yield from service.acquire(view, key)
        log.append((view, key, env.now))
        yield env.timeout(5.0)
        service.release(view, key)

    env.process(proc("V", "k1"))
    env.process(proc("V", "k2"))
    env.process(proc("W", "k1"))
    env.run()
    assert [entry[2] for entry in log] == [0.0, 0.0, 0.0]


def test_lock_service_same_key_serializes(env):
    service = LockService(env)
    log = []

    def proc(name):
        yield from service.acquire("V", "k")
        log.append((name, env.now))
        yield env.timeout(2.0)
        service.release("V", "k")

    env.process(proc("a"))
    env.process(proc("b"))
    env.run()
    assert log == [("a", 0.0), ("b", 2.0)]
    assert service.contentions == 1
    assert service.acquisitions == 2
    assert service.stats()["wait_time_total"] == 2.0
    assert service.max_queue_depth == 1


def test_lock_service_latency_charged(env):
    service = LockService(env, latency=1.0)
    log = []

    def proc():
        yield from service.acquire("V", "k")
        log.append(env.now)
        service.release("V", "k")
        log.append(env.now)

    env.process(proc())
    env.run()
    # Acquire pays one round trip; release is fire-and-forget.
    assert log == [1.0, 1.0]


def test_a_request_queues_with_no_round_trip(env):
    service = LockService(env, latency=1.0)
    assert service.request("V", "k").triggered
    assert not service.request("V", "k").triggered
    assert service.active_locks == 1


def test_lock_service_garbage_collects_idle_locks(env):
    service = LockService(env)

    def proc():
        yield from service.acquire("V", "k")
        service.release("V", "k")

    env.process(proc())
    env.run()
    assert service.active_locks == 0


def test_lock_service_rejects_negative_latency(env):
    with pytest.raises(ValueError):
        LockService(env, latency=-1.0)


def test_a_request_is_counted_like_an_acquire(env):
    """A free grant is one acquisition at once; a queued one is a
    contention at once, and an acquisition and its wait when granted."""
    service = LockService(env)
    service.request("V", "k")
    queued = service.request("V", "k")
    assert (service.acquisitions, service.contentions,
            service.max_queue_depth) == (1, 1, 1)
    env.run(until=3.0)
    service.release("V", "k")
    env.run()
    assert queued.processed
    assert service.acquisitions == 2
    assert service.stats()["wait_time_total"] == 3.0
