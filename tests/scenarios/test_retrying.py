"""The one retrying client, ``scenarios.workload.retrying``.

Every harness client op (the scenario and fuzz workloads, E2 and E6)
retries through it, so its rotation, its backoff and what it gives up
on are pinned here with a scripted op on a bare environment.
"""

import pytest

from repro.errors import NodeDownError, QuorumError, ViewError
from repro.scenarios.workload import RETRIABLE, RETRY_BACKOFF, retrying
from repro.sim import Environment

pytestmark = pytest.mark.scenario

OP_MS = 1.0  # how long each scripted attempt takes


def scripted(env, outcomes, log):
    """An op whose attempts take ``OP_MS`` each and then raise the next
    exception of ``outcomes``, or return the client once they run out."""
    outcomes = list(outcomes)

    def op(client):
        log.append((client, env.now))
        yield env.timeout(OP_MS)
        if outcomes:
            raise outcomes.pop(0)
        return client
    return op


def run(env, clients, first, op, attempts, **kwargs):
    process = env.process(retrying(env, clients, first, op, attempts,
                                   **kwargs))
    env.run(until=process)
    return process.value


def test_attempts_rotate_from_first():
    env, log = Environment(), []
    op = scripted(env, [NodeDownError("down"), QuorumError("short")], log)
    assert run(env, ["a", "b", "c"], 2, op, 5) == (True, "b")
    assert [client for client, _ in log] == ["c", "a", "b"]


def test_a_one_client_pool_retries_the_same_client():
    env, log = Environment(), []
    op = scripted(env, [NodeDownError("down")] * 3, log)
    assert run(env, ["session"], 0, op, 5) == (True, "session")
    assert [client for client, _ in log] == ["session"] * 4


def test_exhausted_attempts_return_false_and_none():
    env, log = Environment(), []
    op = scripted(env, [QuorumError("short")] * 10, log)
    assert run(env, ["a", "b"], 0, op, 3) == (False, None)
    assert [client for client, _ in log] == ["a", "b", "a"]


def test_a_non_retriable_error_propagates_at_once():
    env, log = Environment(), []
    op = scripted(env, [ViewError("no view")], log)

    def caller():
        with pytest.raises(ViewError):
            yield from retrying(env, ["a", "b"], 0, op, 5)

    env.run(until=env.process(caller()))
    assert log == [("a", 0.0)]
    # Named in retry_on, the same error is ridden out.
    env, log = Environment(), []
    op = scripted(env, [ViewError("no view")], log)
    assert run(env, ["a", "b"], 0, op, 5,
               retry_on=RETRIABLE + (ViewError,)) == (True, "b")


def test_each_retry_starts_one_backoff_after_its_failure():
    env, log = Environment(), []
    op = scripted(env, [NodeDownError("down")] * 2, log)
    run(env, ["a"], 0, op, 5)
    step = OP_MS + RETRY_BACKOFF
    assert [at for _, at in log] == [0.0, step, 2 * step]
    assert env.now == 2 * step + OP_MS
