"""Tests for the Resource and Semaphore primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource, Semaphore


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity_immediately():
    env = Environment()
    resource = Resource(env, capacity=2)
    log = []

    def proc(name):
        yield resource.request()
        log.append((name, env.now))
        yield env.timeout(10.0)
        resource.release()

    for name in ("a", "b", "c"):
        env.process(proc(name))
    env.run()
    # a and b acquire at t=0; c waits until a releases at t=10.
    assert log == [("a", 0.0), ("b", 0.0), ("c", 10.0)]


def test_resource_fifo_ordering():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def proc(name):
        yield resource.request()
        order.append(name)
        yield env.timeout(1.0)
        resource.release()

    for name in ("first", "second", "third"):
        env.process(proc(name))
    env.run()
    assert order == ["first", "second", "third"]


def test_resource_release_without_request_rejected():
    env = Environment()
    resource = Resource(env, capacity=1)
    with pytest.raises(SimulationError):
        resource.release()


def test_resource_hold_serializes_on_one_slot():
    env = Environment()
    resource = Resource(env, capacity=1)
    done = []

    def proc(name):
        yield resource.hold(5.0)
        done.append((name, env.now))

    env.process(proc("a"))
    env.process(proc("b"))
    env.run()
    assert done == [("a", 5.0), ("b", 10.0)]


def test_resource_counters():
    env = Environment()
    resource = Resource(env, capacity=1)
    snapshots = []

    def holder():
        yield resource.request()
        yield env.timeout(5.0)
        resource.release()

    def waiter():
        yield env.timeout(1.0)
        request = resource.request()
        snapshots.append((resource.in_use, resource.queue_length))
        yield request
        resource.release()

    env.process(holder())
    env.process(waiter())
    env.run()
    assert snapshots == [(1, 1)]
    assert resource.in_use == 0
    assert resource.queue_length == 0


def test_resource_queueing_produces_serial_throughput():
    """With capacity 1 and service time s, k jobs take k*s total."""
    env = Environment()
    resource = Resource(env, capacity=1)
    finished = []

    def job():
        yield resource.hold(2.0)
        finished.append(env.now)

    for _ in range(5):
        env.process(job())
    env.run()
    assert finished == [2.0, 4.0, 6.0, 8.0, 10.0]


def test_hold_and_request_waiters_share_one_fifo_queue():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def by_hold(name, duration):
        yield resource.hold(duration)
        order.append((name, env.now))

    def by_request(name, duration):
        yield resource.request()
        yield env.timeout(duration)
        resource.release()
        order.append((name, env.now))

    env.process(by_hold("h1", 2.0))
    env.process(by_request("r2", 3.0))
    env.process(by_hold("h3", 1.0))
    env.process(by_request("r4", 1.0))
    env.process(by_hold("h5", 2.0))
    env.run()
    assert order == [("h1", 2.0), ("r2", 5.0), ("h3", 6.0), ("r4", 7.0),
                     ("h5", 9.0)]
    assert resource.in_use == 0 and resource.queue_length == 0


def test_hold_never_exceeds_capacity():
    env = Environment()
    resource = Resource(env, capacity=2)
    peak = []
    env.set_event_watcher(lambda _e: peak.append(resource.in_use))

    def job(duration):
        yield resource.hold(duration)
        # The slot is already given back (or handed on) when we resume.
        assert resource.in_use <= 2

    for duration in (3.0, 1.0, 2.0, 2.0, 1.0, 4.0, 0.5):
        env.process(job(duration))
    env.run()
    assert max(peak) == 2
    # Two lanes, FIFO: 3 | 1, 2 until t=3; then 2, 0.5 | 1, 4 until t=8.
    assert env.now == 8.0
    assert resource.in_use == 0


def test_hold_frees_its_slot_when_nobody_waits_on_the_event():
    env = Environment()
    resource = Resource(env, capacity=1)
    resource.hold(2.0)   # fire and forget, running
    resource.hold(3.0)   # fire and forget, queued
    assert (resource.in_use, resource.queue_length) == (1, 1)
    done = []

    def job():
        yield resource.hold(1.0)
        done.append(env.now)

    env.process(job())
    env.run()
    assert done == [6.0]
    assert resource.in_use == 0


def test_hold_frees_its_slot_when_the_waiting_generator_is_closed():
    env = Environment()
    resource = Resource(env, capacity=1)

    def abandoned():
        yield resource.hold(2.0)
        raise AssertionError("closed before the hold ended")

    generator = abandoned()
    next(generator)          # holding, nothing registered on the event
    generator.close()
    queued = abandoned()
    next(queued)             # queued behind it
    queued.close()
    env.run()
    assert env.now == 4.0    # both holds ran their length regardless
    assert resource.in_use == 0 and resource.queue_length == 0


def test_hold_is_one_kernel_event_queued_or_not():
    env = Environment()
    resource = Resource(env, capacity=1)
    popped = []
    env.set_event_watcher(popped.append)
    first = resource.hold(1.0)
    queued = [resource.hold(1.0) for _ in range(4)]
    assert not any(hold.triggered for hold in queued)
    env.run()
    assert popped == [first, *queued]
    assert env.now == 5.0


def test_hold_rejects_negative_duration():
    env = Environment()
    resource = Resource(env, capacity=1)
    with pytest.raises(ValueError):
        resource.hold(-1.0)
    assert resource.in_use == 0


# ---------------------------------------------------------------------------
# Semaphore
# ---------------------------------------------------------------------------


def test_semaphore_initial_tokens():
    env = Environment()
    sem = Semaphore(env, tokens=2)
    acquired = []

    def proc(name):
        yield sem.acquire()
        acquired.append((name, env.now))

    env.process(proc("a"))
    env.process(proc("b"))
    env.process(proc("c"))

    def releaser():
        yield env.timeout(5.0)
        sem.release()

    env.process(releaser())
    env.run()
    assert acquired == [("a", 0.0), ("b", 0.0), ("c", 5.0)]


def test_semaphore_negative_tokens_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        Semaphore(env, tokens=-1)


def test_semaphore_release_banks_tokens():
    env = Environment()
    sem = Semaphore(env, tokens=0)
    sem.release()
    sem.release()
    assert sem.tokens == 2
    got = []

    def proc():
        yield sem.acquire()
        got.append(env.now)

    env.process(proc())
    env.run()
    assert got == [0.0]
    assert sem.tokens == 1
