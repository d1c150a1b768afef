"""Property-based tests for the simulation kernel and resources."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource, Semaphore


@settings(max_examples=60, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=1000.0,
                                 allow_nan=False), min_size=1, max_size=30))
def test_events_fire_in_nondecreasing_time_order(delays):
    env = Environment()
    fired = []

    def proc(delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(proc(delay))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert env.now == max(delays)


@settings(max_examples=60, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False), min_size=1, max_size=20))
def test_sequential_timeouts_sum(delays):
    env = Environment()

    def proc():
        for delay in delays:
            yield env.timeout(delay)
        return env.now

    process = env.process(proc())
    result = env.run(until=process)
    assert abs(result - sum(delays)) < 1e-6


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=5),
    jobs=st.lists(st.tuples(st.integers(min_value=0, max_value=20),
                            st.integers(min_value=0, max_value=10)),
                  min_size=1, max_size=25),
)
def test_resource_never_exceeds_capacity(capacity, jobs):
    """Jobs ``(submitted at, length)`` (whole numbers, so every instant
    is exact): never more than ``capacity`` in service at once, served
    in submission order, and none waits while a slot is idle."""
    env = Environment()
    resource = Resource(env, capacity=capacity)
    served = []  # (submitted, start, end), in submission order

    def job(submit_at, duration):
        yield env.timeout(submit_at)
        index = len(served)
        served.append(None)
        yield resource.hold(float(duration))
        served[index] = (submit_at, env.now - duration, env.now)

    for submit_at, duration in sorted(jobs, key=lambda job: job[0]):
        env.process(job(submit_at, duration))
    env.run()
    assert None not in served
    for _submitted, start, end in served:
        busy = sum(1 for _s, other_start, other_end in served
                   if other_start <= start < other_end)
        assert busy <= capacity
    starts = [start for _submitted, start, _end in served]
    assert starts == sorted(starts)
    ends = {end for _submitted, _start, end in served}
    for submitted, start, _end in served:
        assert start >= submitted
        assert start == submitted or start in ends


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=4),
    jobs=st.lists(st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
                  min_size=2, max_size=15),
)
def test_resource_total_work_conserved(capacity, jobs):
    """Makespan of a saturated FIFO server is at least total/capacity and
    at most total (single lane)."""
    env = Environment()
    resource = Resource(env, capacity=capacity)

    def job(duration):
        yield resource.hold(duration)

    for duration in jobs:
        env.process(job(duration))
    env.run()
    total = sum(jobs)
    assert env.now >= total / capacity - 1e-9
    assert env.now <= total + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    tokens=st.integers(min_value=0, max_value=5),
    acquirers=st.integers(min_value=1, max_value=10),
    releases=st.integers(min_value=0, max_value=10),
)
def test_semaphore_conservation(tokens, acquirers, releases):
    env = Environment()
    sem = Semaphore(env, tokens=tokens)
    acquired = []

    def proc(i):
        yield sem.acquire()
        acquired.append(i)

    for i in range(acquirers):
        env.process(proc(i))

    def releaser():
        for _ in range(releases):
            yield env.timeout(1.0)
            sem.release()

    env.process(releaser())
    env.run()
    assert len(acquired) == min(acquirers, tokens + releases)
    assert sem.tokens == max(0, tokens + releases - acquirers)
