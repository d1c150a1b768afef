"""Tests for session bookkeeping and the Section V guarantee machinery."""

import pytest

from repro.errors import PropagationError, SessionError
from repro.sim import Environment
from repro.views import NodeOutbox, ViewDefinition
from repro.views.session import SessionManager

VIEW = ViewDefinition("V", "T", "vk", ("m",))


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def outbox(env):
    # Nothing runs the records: the tests resolve them by hand.
    return NodeOutbox(env, node_id=0, capacity=8)


def put(env, outbox, manager, session, resolve_at, exc=None):
    """Append one record (a fresh base key each time, so nothing
    coalesces), register its completion with the session, and resolve
    it — with ``exc`` as a failed propagation — at ``resolve_at``."""
    completion = env.event()
    record, _starts = outbox.append(VIEW, "T", outbox.appended, {"m": "x"},
                                    100, (None, None), completion)
    manager.register(session, "V", completion)

    def resolver():
        yield env.timeout(resolve_at - env.now)
        record.resolve(exc)

    env.process(resolver())
    return record


def test_sessions_get_distinct_ids(env):
    manager = SessionManager(env)
    a = manager.create(0)
    b = manager.create(1)
    assert a.session_id != b.session_id
    assert a.coordinator_id == 0
    assert b.coordinator_id == 1


def test_register_and_auto_discard(env, outbox):
    manager = SessionManager(env)
    session = manager.create(0)
    put(env, outbox, manager, session, resolve_at=5.0)
    assert session.pending_barriers("V") == 1
    env.run()
    assert session.pending_barriers("V") == 0


def test_barrier_blocks_until_pending_complete(env, outbox):
    manager = SessionManager(env)
    session = manager.create(0)
    put(env, outbox, manager, session, resolve_at=5.0)
    put(env, outbox, manager, session, resolve_at=9.0)
    log = []

    def getter():
        yield from manager.barrier(session, "V")
        log.append(env.now)

    env.process(getter())
    env.run()
    assert log == [9.0]
    assert manager.blocked_gets == 1


def test_failed_resolution_releases_the_barrier(env, outbox):
    """Resolution, not success: a lost or abandoned propagation is no
    longer pending, and its failure is not raised into the Get."""
    manager = SessionManager(env)
    session = manager.create(0)
    put(env, outbox, manager, session, resolve_at=4.0,
        exc=PropagationError("abandoned"))
    log = []

    def getter():
        yield from manager.barrier(session, "V")
        log.append(env.now)

    env.process(getter())
    env.run()
    assert log == [4.0]
    assert session.pending_barriers("V") == 0


def test_barrier_without_pending_is_instant(env):
    manager = SessionManager(env)
    session = manager.create(0)
    log = []

    def getter():
        yield from manager.barrier(session, "V")
        log.append(env.now)

    env.process(getter())
    env.run()
    assert log == [0.0]
    assert manager.blocked_gets == 0


def test_barrier_is_per_view(env, outbox):
    manager = SessionManager(env)
    session = manager.create(0)
    put(env, outbox, manager, session, resolve_at=100.0)
    log = []

    def getter():
        yield from manager.barrier(session, "OTHER")
        log.append(env.now)

    env.process(getter())
    env.run()
    assert log == [0.0]


def test_barrier_snapshot_ignores_later_registrations(env, outbox):
    """The barrier waits only for propagations pending at Get time."""
    manager = SessionManager(env)
    session = manager.create(0)
    put(env, outbox, manager, session, resolve_at=3.0)
    log = []

    def getter():
        yield from manager.barrier(session, "V")
        log.append(env.now)

    def late_putter():
        yield env.timeout(1.0)
        put(env, outbox, manager, session, resolve_at=50.0)

    env.process(getter())
    env.process(late_putter())
    env.run()
    assert log == [3.0]


def test_register_on_ended_session_rejected(env):
    manager = SessionManager(env)
    session = manager.create(0)
    manager.end(session)
    with pytest.raises(SessionError):
        manager.register(session, "V", env.event())
