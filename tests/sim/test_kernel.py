"""Tests for the discrete-event simulation kernel."""

import gc
import warnings
import weakref

import pytest

from repro.errors import ProcessError, SimulationError
from repro.sim import Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(3.0)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [3.0]


def test_timeout_carries_value():
    env = Environment()
    result = []

    def proc():
        value = yield env.timeout(1.0, value="hello")
        result.append(value)

    env.process(proc())
    env.run()
    assert result == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc():
        for delay in (1.0, 2.0, 3.0):
            yield env.timeout(delay)
            times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [1.0, 3.0, 6.0]


def test_processes_interleave_in_time_order():
    env = Environment()
    order = []

    def proc(name, delay):
        yield env.timeout(delay)
        order.append((name, env.now))

    env.process(proc("late", 5.0))
    env.process(proc("early", 1.0))
    env.process(proc("middle", 3.0))
    env.run()
    assert order == [("early", 1.0), ("middle", 3.0), ("late", 5.0)]


def test_same_time_events_fire_fifo():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1.0)
        order.append(name)

    for name in ("a", "b", "c"):
        env.process(proc(name))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10.0)

    env.process(proc())
    env.run(until=25.0)
    assert env.now == 25.0


def test_run_until_time_with_no_events_advances_clock():
    env = Environment()
    env.run(until=100.0)
    assert env.now == 100.0


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc():
        yield env.timeout(2.0)
        return 42

    process = env.process(proc())
    assert env.run(until=process) == 42
    assert env.now == 2.0


def test_process_return_value_via_yield():
    env = Environment()
    got = []

    def child():
        yield env.timeout(1.0)
        return "child-result"

    def parent():
        result = yield env.process(child())
        got.append(result)

    env.process(parent())
    env.run()
    assert got == ["child-result"]


def test_waiting_on_finished_process_resumes_immediately():
    env = Environment()
    got = []

    def child():
        yield env.timeout(1.0)
        return "done"

    def parent(child_proc):
        yield env.timeout(5.0)
        result = yield child_proc
        got.append((result, env.now))

    child_proc = env.process(child())
    env.process(parent(child_proc))
    env.run()
    assert got == [("done", 5.0)]


def test_exception_in_child_propagates_to_waiting_parent():
    env = Environment()
    caught = []

    def child():
        yield env.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield env.process(child())
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_escalates():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise ValueError("unhandled")

    env.process(proc())
    with pytest.raises(ProcessError):
        env.run()


def test_event_succeed_delivers_value():
    env = Environment()
    got = []
    event = env.event()

    def waiter():
        value = yield event
        got.append((value, env.now))

    def trigger():
        yield env.timeout(3.0)
        event.succeed("payload")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert got == [("payload", 3.0)]


def test_event_fail_raises_in_waiter():
    env = Environment()
    caught = []
    event = env.event()

    def waiter():
        try:
            yield event
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger():
        yield env.timeout(1.0)
        event.fail(RuntimeError("failed-event"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["failed-event"]


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_multiple_waiters_on_one_event():
    env = Environment()
    got = []
    event = env.event()

    def waiter(name):
        value = yield event
        got.append((name, value))

    env.process(waiter("a"))
    env.process(waiter("b"))

    def trigger():
        yield env.timeout(1.0)
        event.succeed("x")

    env.process(trigger())
    env.run()
    assert sorted(got) == [("a", "x"), ("b", "x")]


def test_yielding_non_event_fails_process():
    env = Environment()

    def proc():
        yield 42

    env.process(proc())
    with pytest.raises(ProcessError):
        env.run()


def test_is_alive_tracks_lifecycle():
    env = Environment()

    def proc():
        yield env.timeout(5.0)

    process = env.process(proc())
    assert process.is_alive
    env.run()
    assert not process.is_alive


def test_nested_process_chain():
    env = Environment()

    def leaf():
        yield env.timeout(1.0)
        return 1

    def middle():
        value = yield env.process(leaf())
        yield env.timeout(1.0)
        return value + 1

    def root():
        value = yield env.process(middle())
        return value + 1

    process = env.process(root())
    assert env.run(until=process) == 3
    assert env.now == 2.0


def test_determinism_same_seedless_structure():
    """Two identical simulations produce identical event orderings."""

    def build_and_run():
        env = Environment()
        order = []

        def proc(name, delay):
            yield env.timeout(delay)
            order.append(name)

        for i in range(20):
            env.process(proc(f"p{i}", (i * 7) % 5))
        env.run()
        return order

    assert build_and_run() == build_and_run()


def test_unconsumed_failed_event_escalates():
    env = Environment()
    env.event().fail(RuntimeError("nobody is waiting"))
    with pytest.raises(ProcessError):
        env.run()


def test_defused_failed_event_does_not_escalate():
    """Event.defuse() marks an expected failure as handled: the kernel
    must not escalate it even with no waiter consuming the failure."""
    env = Environment()
    event = env.event()
    assert event.defuse() is event  # chains
    event.fail(RuntimeError("expected outcome"))
    env.run()  # would raise ProcessError without the defuse


def test_defuse_after_trigger_also_suppresses_escalation():
    env = Environment()
    event = env.event()
    event.fail(RuntimeError("late defuse"))
    event.defuse()
    env.run()


# ---------------------------------------------------------------------------
# Failure delivery
# ---------------------------------------------------------------------------


def test_failure_delivery_raises_no_deprecation_warning():
    """A failed event is thrown into its waiter with the one-argument
    ``throw(exc)``: the ``(type, exc, tb)`` form is deprecated since
    Python 3.12, and under ``-W error`` the warning would kill the
    waiter instead of reaching its ``except``."""
    env = Environment()
    caught = []

    def proc():
        try:
            yield env.event().fail(ValueError("delivered"))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(proc())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        env.run()
    assert caught == ["delivered"]


# ---------------------------------------------------------------------------
# In-place trigger
# ---------------------------------------------------------------------------


def test_succeed_now_runs_callbacks_in_registration_order_without_the_heap():
    env = Environment()
    event = env.event()
    order = []
    event.add_callback(lambda e: order.append(("first", e.value)))
    event.add_callback(lambda e: order.append(("second", e.value)))
    event.add_callback(lambda e: order.append(("third", e.value)))
    assert event.succeed_now("v") is event
    # Ran inside the call: nothing was scheduled, nothing is left to run.
    assert order == [("first", "v"), ("second", "v"), ("third", "v")]
    assert event.processed and event.ok
    assert env._heap == []


def test_succeed_now_refuses_a_second_trigger():
    env = Environment()
    event = env.event()
    event.succeed_now(1)
    with pytest.raises(SimulationError):
        event.succeed_now(2)
    with pytest.raises(SimulationError):
        event.succeed(2)
    scheduled = env.event().succeed()
    with pytest.raises(SimulationError):
        scheduled.succeed_now()
    assert event.value == 1


def test_process_yielding_an_event_triggered_in_place_continues_at_once():
    env = Environment()
    event = env.event()
    popped = []
    env.set_event_watcher(popped.append)
    log = []

    def proc():
        yield env.timeout(1.0)
        log.append((yield event))
        log.append(env.now)

    process = env.process(proc())
    env.timeout(0.5).add_callback(lambda _t: event.succeed_now("early"))
    env.run()
    assert log == ["early", 1.0]
    # Start, the two timers, completion: the triggered event itself
    # never went through the heap.
    assert len(popped) == 4 and event not in popped
    assert popped[-1] is process


def test_succeed_now_resumes_a_waiting_process_inside_the_callback():
    env = Environment()
    event = env.event()
    log = []

    def proc():
        log.append(("got", (yield event), env.now))

    env.process(proc())

    def trigger(_timer):
        event.succeed_now("x")
        log.append(("after trigger", env.now))

    env.timeout(2.0).add_callback(trigger)
    env.run()
    assert log == [("got", "x", 2.0), ("after trigger", 2.0)]


def test_succeed_now_with_waiters_rejected_inside_a_running_process():
    """Resuming a waiter from inside another process would nest them;
    an event nobody waits on yet may be triggered from anywhere."""
    env = Environment()
    contested = env.event()
    outcome = []

    def waiter():
        yield contested

    def trigger():
        yield env.timeout(1.0)
        fresh = env.event().succeed_now("nobody waiting")
        outcome.append((yield fresh))
        try:
            contested.succeed_now()
        except SimulationError:
            outcome.append("refused")
            contested.succeed()

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert outcome == ["nobody waiting", "refused"]


def test_timeout_at_fires_at_the_absolute_time():
    env = Environment(initial_time=0.1)
    when = 0.1 + 0.7  # not representable as now + (when - now) later on
    fired = []
    env.run(until=0.3)
    env.timeout_at(when, value="v").add_callback(
        lambda e: fired.append((env.now, e.value)))
    env.run()
    assert fired == [(when, "v")]
    with pytest.raises(ValueError):
        env.timeout_at(env.now - 1.0)


def test_call_at_calls_back_at_the_absolute_time_with_no_event():
    env = Environment(initial_time=0.1)
    when = 0.1 + 0.7
    fired = []
    env.run(until=0.3)
    env.call_at(when, lambda: fired.append(env.now))
    env.run()
    assert fired == [when]
    assert not env._heap
    with pytest.raises(ValueError):
        env.call_at(env.now - 1.0, lambda: None)


def test_call_at_takes_its_turn_among_events_of_the_same_instant():
    """Same key as ``timeout_at``: FIFO with every NORMAL event due
    then, and behind an URGENT one (a process start) scheduled for the
    same instant later."""
    env = Environment()
    order = []

    def started():
        order.append("process")
        yield env.timeout(0.0)

    def first(_event):
        order.append("timeout a")
        env.process(started())

    env.timeout_at(1.0).add_callback(first)
    env.call_at(1.0, lambda: order.append("call b"))
    env.timeout(1.0).add_callback(lambda _e: order.append("timeout c"))
    env.call_at(1.0, lambda: order.append("call d"))
    env.run()
    assert order == ["timeout a", "process", "call b", "timeout c",
                     "call d"]


def test_call_at_is_one_pop_the_watcher_sees():
    """A ``call_at`` timer is a heap entry of its own shape, yet it pops
    among a ``timeout_at`` event and a ``Timeout`` of its instant in
    scheduling order; the watcher is handed the callback for it and the
    event for the others."""
    env = Environment()
    seen = []
    env.set_event_watcher(seen.append)
    at = env.timeout_at(2.0)
    at.add_callback(lambda _event: seen.append("timeout_at"))
    callback = lambda: seen.append("called")  # noqa: E731
    env.call_at(2.0, callback)
    delayed = env.timeout(2.0)
    delayed.add_callback(lambda _event: seen.append("timeout"))
    env.run()
    assert seen == [at, "timeout_at", callback, "called", delayed,
                    "timeout"]


def test_a_process_that_yields_a_non_event_after_a_caught_failure_fails():
    """The resume loop throws a failure into the generator; one that
    catches it and then yields something that is no event has that
    thrown back as a ``SimulationError``, which fails the process."""
    env = Environment()

    def proc():
        failed = env.event()
        failed.fail(ValueError("caught"))
        try:
            yield failed
        except ValueError:
            pass
        yield "not an event"

    process = env.process(proc())
    process.defuse()
    env.run()
    assert not process.ok
    assert isinstance(process.value, SimulationError)
    assert "yielded a non-event: 'not an event'" in str(process.value)


def test_call_at_callback_exception_unwinds_run():
    env = Environment()

    def broken():
        raise RuntimeError("timer blew up")

    env.call_at(1.0, broken)
    with pytest.raises(RuntimeError, match="timer blew up"):
        env.run()
    assert env.now == 1.0


# -- the cyclic collector around run() ----------------------------------------


@pytest.fixture
def collector():
    """Put the cyclic collector's state back however a test leaves it."""
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    gc.enable()
    yield
    gc.set_threshold(*threshold)
    (gc.enable if enabled else gc.disable)()


def _watched_run(env, until, seen):
    """``env.run(until)`` from a process that notes whether collection
    was on while it ran."""
    def proc():
        seen.append(gc.isenabled())
        yield env.timeout(1.0)
        seen.append(gc.isenabled())
        return "done"
    process = env.process(proc())
    return env.run(until=process if until == "process" else until)


def _fail_unwatched(env):
    def proc():
        yield env.timeout(1.0)
        env.event().fail(ValueError("nobody waits"))
    env.process(proc())


def _failing_process(env):
    def proc():
        yield env.timeout(1.0)
        raise ValueError("boom")
    return env.process(proc())


def _raise_from_watcher(env):
    def watcher(event):
        raise RuntimeError("event budget exceeded")
    env.set_event_watcher(watcher)


def _allocator(env, count, keep, made=None):
    """A process that allocates ``count`` tracked objects and keeps
    them; if ``made`` is a list it first makes (and drops) a reference
    cycle and appends a weak reference to one member."""
    if made is not None:
        a, b = _Node(), _Node()
        a.other, b.other = b, a
        made.append(weakref.ref(a))
        del a, b
    yield env.timeout(1.0)
    keep.extend([] for _ in range(count))


class _Node:
    other = None


@pytest.mark.parametrize("until", [None, 5.0, "process"])
def test_run_turns_collection_off_and_back_on(collector, until):
    env = Environment()
    seen = []
    _watched_run(env, until, seen)
    assert seen == [False, False]
    assert gc.isenabled()


@pytest.mark.parametrize("setup, until, raised", [
    # run(until=event) whose event failed: StopSimulation re-raises it.
    (_failing_process, "event", ValueError),
    # A failure nobody waits for escalates.
    (_fail_unwatched, None, ProcessError),
    # A watcher that raises aborts the run (the scenario harness's
    # event budget).
    (_raise_from_watcher, None, RuntimeError),
])
def test_run_restores_collection_when_it_raises(collector, setup, until,
                                                raised):
    env = Environment()
    made = setup(env)
    env.timeout(2.0)
    with pytest.raises(raised):
        env.run(until=made if until == "event" else until)
    assert gc.isenabled()


def test_a_disabled_collector_stays_disabled(collector):
    env = Environment()
    gc.disable()
    passes = []
    gc.callbacks.append(lambda phase, info: passes.append(phase))
    try:
        keep = []
        env.process(_allocator(env, 3 * gc.get_threshold()[0], keep))
        env.run()
    finally:
        gc.callbacks.pop()
    assert not gc.isenabled()
    assert passes == []


def test_a_zero_threshold_is_honoured(collector):
    env = Environment()
    allocations = 3 * gc.get_threshold()[0]
    gc.set_threshold(0)
    passes = []
    gc.callbacks.append(lambda phase, info: passes.append(phase))
    try:
        keep = []
        env.process(_allocator(env, allocations, keep))
        env.run()
    finally:
        gc.callbacks.pop()
    assert gc.isenabled()
    assert passes == []


def test_run_leaves_the_young_generation_within_its_threshold(collector):
    env = Environment()
    threshold = gc.get_threshold()[0]
    keep = []
    env.process(_allocator(env, 3 * threshold, keep))
    env.run()
    assert len(keep) == 3 * threshold
    assert gc.get_count()[0] <= threshold


def test_a_cycle_dropped_in_a_run_is_reclaimed_before_it_returns(collector):
    env = Environment()
    made, keep = [], []
    env.process(_allocator(env, 3 * gc.get_threshold()[0], keep, made))
    env.run()
    assert made[0]() is None


# -- close(): what a caller does before dropping an undrained simulation ------


class _Probe:
    """A timer's callback that reaches back to its environment, as a
    cluster's do; weakly referenceable, unlike the kernel's slotted
    classes."""

    def __init__(self, env):
        self.env = env

    def fire(self, _event):  # pragma: no cover - the timer never fires
        raise AssertionError("a closed simulation ran a callback")


def _undrained(log):
    """An Environment stopped with a pending timer whose callback holds
    it, and a process suspended on an event nobody will trigger that
    starts another process from its ``finally`` (which close() must end
    too, without running it)."""
    env = Environment()
    probe = _Probe(env)
    env.timeout(5.0).callbacks.append(probe.fire)

    def started_while_closing():  # pragma: no cover - never resumed
        log.append("resumed")
        yield env.timeout(1.0)

    def waiter():
        try:
            yield env.event()
        finally:
            log.append("finally")
            env.process(started_while_closing())

    env.process(waiter())
    env.run(until=1.0)
    return env, weakref.ref(probe)


@pytest.mark.parametrize("closed", [True, False])
def test_close_lets_reference_counting_free_an_undrained_simulation(
        collector, closed):
    gc.disable()
    gc.collect()
    log = []
    env, probe = _undrained(log)
    if closed:
        env.close()
        assert env._heap == [] and env._processes == {}
    del env
    if closed:
        assert probe() is None and gc.collect() == 0
        assert log == ["finally"]
    else:
        # Without close() the heap and the suspended process keep it.
        kept = probe() is not None
        gc.collect()
        assert kept


def test_a_drained_simulation_needs_no_close(collector):
    """A finished process leaves the registry: nothing of a drained
    simulation reaches back to it."""
    gc.disable()
    gc.collect()
    env = Environment()
    env.process(_allocator(env, 10, []))
    env.run()
    assert env._processes == {}
    del env
    assert gc.collect() == 0
