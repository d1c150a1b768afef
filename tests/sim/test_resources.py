"""Tests for the Resource and Semaphore primitives."""

import pytest

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
        yield resource.hold(10.0)
        log.append((name, env.now))

    for name in ("a", "b", "c"):
        env.process(proc(name))
    env.run()
    # a and b start at t=0; c waits until a slot frees at t=10.
    assert log == [("a", 10.0), ("b", 10.0), ("c", 20.0)]


def test_resource_fifo_ordering():
    """Work is served in submission order, not shortest first."""
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def proc(name, duration):
        yield resource.hold(duration)
        order.append((name, env.now))

    for name, duration in (("first", 3.0), ("second", 1.0), ("third", 2.0)):
        env.process(proc(name, duration))
    env.run()
    assert order == [("first", 3.0), ("second", 4.0), ("third", 6.0)]


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
    """Waited-on holds, direct ``request()`` calls and deferred work take
    their turns in one FIFO queue."""
    env = Environment()
    resource = Resource(env, capacity=1)
    ends = {"h1": resource.hold(2.0)}
    resource.defer(3.0)                      # 2 .. 5, nobody waits
    ends["h3"] = resource.hold(1.0)          # 5 .. 6
    ends["r4"] = resource.request(1.0)       # 6 .. 7
    ends["h5"] = resource.hold(2.0)          # 7 .. 9
    done = []
    for name, event in ends.items():
        event.add_callback(lambda _e, name=name: done.append((name, env.now)))
    env.run()
    assert done == [("h1", 2.0), ("h3", 6.0), ("r4", 7.0), ("h5", 9.0)]


def test_only_a_hold_that_finds_every_slot_busy_goes_through_request():
    """``request`` is the queued path, so wrapping it counts exactly the
    waited-on work that had to queue; deferred work never passes it."""
    env = Environment()
    resource = Resource(env, capacity=2)
    original = resource.request
    calls = []

    def counting(duration):
        calls.append((env.now, duration))
        return original(duration)

    resource.request = counting
    resource.hold(1.0)       # 0 .. 1
    resource.defer(2.0)      # 0 .. 2
    resource.hold(3.0)       # both slots busy: queued, 1 .. 4
    resource.defer(0.5)      # queued too, but nobody waits: 2 .. 2.5
    env.run(until=3.0)
    resource.hold(5.0)       # a slot has been free since 2.5
    env.run()
    assert calls == [(0.0, 3.0)]


def test_hold_never_exceeds_capacity():
    """A hand-computed two-core FIFO schedule, start and end instants:
    each unit takes the core that falls free first, starting then or at
    its submission, whichever is later."""
    env = Environment()
    resource = Resource(env, capacity=2)
    spans = {}

    def job(name, duration, submit_at):
        yield env.timeout(submit_at)
        yield resource.hold(duration)
        spans[name] = (env.now - duration, env.now)

    for name, duration, submit_at in (
            ("a", 3.0, 0.0), ("b", 1.0, 0.0), ("c", 2.0, 0.0),
            ("d", 2.0, 0.0), ("e", 1.0, 0.0), ("f", 4.0, 0.0),
            ("g", 0.5, 0.0), ("h", 1.0, 6.0), ("i", 2.0, 6.5)):
        env.process(job(name, duration, submit_at))
    env.run()
    assert spans == {
        "a": (0.0, 3.0), "b": (0.0, 1.0),   # both cores free at t=0
        "c": (1.0, 3.0),                    # b's core, free at 1
        "d": (3.0, 5.0), "e": (3.0, 4.0),   # a's and c's, both free at 3
        "f": (4.0, 8.0),                    # e's, free at 4
        "g": (5.0, 5.5),                    # d's, free at 5
        "h": (6.0, 7.0),                    # g's core has been free since 5.5
        "i": (7.0, 9.0),                    # f's runs to 8, h's frees at 7
    }
    instants = sorted({t for span in spans.values() for t in span})
    assert max(sum(1 for start, end in spans.values() if start <= t < end)
               for t in instants) == 2


def test_hold_frees_its_slot_when_nobody_waits_on_the_event():
    env = Environment()
    resource = Resource(env, capacity=1)
    resource.hold(2.0)   # fire and forget, running
    resource.hold(3.0)   # fire and forget, queued
    done = []

    def job():
        yield resource.hold(1.0)
        done.append(env.now)

    env.process(job())
    env.run()
    assert done == [6.0]


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
    resource.hold(1.0)
    env.run()
    assert env.now == 5.0    # and the slot is free again


def test_hold_is_one_kernel_event_queued_or_not():
    """A queued hold's end is known when it is submitted: its one timer
    is scheduled then, and no grant or hand-off event follows."""
    env = Environment()
    resource = Resource(env, capacity=1)
    popped = []
    env.set_event_watcher(lambda event: popped.append((event, env.now)))
    first = resource.hold(1.0)
    queued = [resource.hold(1.0) for _ in range(4)]
    env.run()
    assert popped == list(zip([first, *queued], [1.0, 2.0, 3.0, 4.0, 5.0]))


def test_deferred_work_delays_the_next_hold_and_pops_no_event():
    env = Environment()
    resource = Resource(env, capacity=1)
    popped = []
    env.set_event_watcher(popped.append)
    resource.defer(3.0)
    hold = resource.hold(2.0)
    env.run()
    assert env.now == 5.0            # exactly the deferred length later
    assert popped == [hold]


def test_deferred_work_takes_one_core_of_several():
    env = Environment()
    resource = Resource(env, capacity=2)
    resource.defer(3.0)
    done = []
    for duration in (1.0, 1.0):
        resource.hold(duration).add_callback(
            lambda _e: done.append(env.now))
    env.run()
    # The second core runs both holds while the first does the deferred
    # work.
    assert done == [1.0, 2.0]


def test_free_at_is_when_the_first_core_falls_free():
    env = Environment(initial_time=4.0)
    resource = Resource(env, capacity=2)
    assert resource.free_at == 4.0
    resource.defer(3.0)
    assert resource.free_at == 4.0          # the second core is idle
    resource.hold(1.0)
    assert resource.free_at == 5.0
    env.run()
    assert env.now == 5.0 and resource.free_at == 5.0
    env.run(until=9.0)
    assert resource.free_at == 5.0          # in the past: a core is idle
    with pytest.raises(AttributeError):
        resource.free_at = 0.0


def test_hold_rejects_negative_duration():
    env = Environment()
    resource = Resource(env, capacity=1)
    with pytest.raises(ValueError):
        resource.hold(-1.0)
    with pytest.raises(ValueError):
        resource.defer(-1.0)
    # Nothing was booked: the next hold starts at once.
    resource.hold(1.0)
    env.run()
    assert env.now == 1.0


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
