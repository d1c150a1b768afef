"""Crash-storm tests: view maintenance under random node failures.

With at most one of four nodes down at a time (N = 3), every replica set
keeps a majority, so quorum operations and Algorithm 1/2 must keep
working.  After the storm ends and anti-entropy repairs the tables, the
versioned view must satisfy every invariant and match the oracle.  The
second half pins the lifecycle rules of the books every adversary keeps
(``repro.scenarios.adversaries.Adversary``).
"""

import pytest

from repro.cluster import Cluster
from repro.errors import NodeDownError, QuorumError
from repro.scenarios import Adversary, CrashStorm, Scenario
from repro.views import (
    BaseUpdate,
    ReferenceViewModel,
    ViewDefinition,
    check_view,
)

from tests.views.conftest import make_config

VIEW = ViewDefinition("V", "T", "vk", ("m",))


def storm_scenario(**config):
    """A built (not run) scenario: cluster, table T and view V."""
    scenario = Scenario(config=make_config(**config))
    scenario.build()
    return scenario


def test_chaos_monkey_validation():
    """A crash storm rejects an impossible budget at construction, and
    one that would take every node down when it meets the cluster."""
    with pytest.raises(ValueError):
        CrashStorm(max_down=0)
    with pytest.raises(ValueError):
        CrashStorm(targets=[])
    with pytest.raises(ValueError):
        CrashStorm(max_down=4).start(storm_scenario())


def test_chaos_monkey_kills_and_recovers():
    scenario = storm_scenario()
    cluster = scenario.cluster
    storm = CrashStorm()
    storm.start(scenario)
    cluster.run(until=500.0)
    storm.stop()
    cluster.run_until_idle()
    assert storm.injections >= 2
    assert storm.holds("crash") == 0
    assert all(not node.is_down for node in cluster.nodes)


@pytest.mark.parametrize("mode", ["locks", "propagators"])
def test_view_maintenance_survives_chaos(mode):
    scenario = storm_scenario(propagation_concurrency=mode, seed=23)
    cluster = scenario.cluster
    storm = CrashStorm()
    storm.start(scenario)
    env = cluster.env
    reference = ReferenceViewModel(VIEW)
    applied = []

    def workload():
        """60 updates across 6 rows, retrying around failures like a
        real application."""
        clients = {}
        for i in range(60):
            key = f"row{i % 6}"
            column, value = (("vk", f"g{i % 3}") if i % 2 == 0
                             else ("m", i))
            ts = (i + 1) * 1_000_000
            for _attempt in range(12):
                coordinator_id = (i + _attempt) % 4
                client = clients.get(coordinator_id)
                if client is None:
                    client = cluster.client(coordinator_id=coordinator_id)
                    clients[coordinator_id] = client
                try:
                    yield from client.put("T", key, {column: value}, 2, ts)
                except (NodeDownError, QuorumError):
                    yield env.timeout(5.0)
                    continue
                applied.append(BaseUpdate(key, column, value, ts))
                break
            else:
                raise AssertionError(f"update {i} never succeeded")
            yield env.timeout(4.0)

    process = env.process(workload())
    env.run(until=process)
    storm.stop()
    cluster.run_until_idle()
    # Heal any replica-level divergence left by the outages.
    for table in ("T", "V"):
        repair = cluster.repair_table(table)
        env.run(until=repair)
    cluster.run_until_idle()

    for update in applied:
        reference.propagate(update)
    violations = check_view(cluster, VIEW, reference)
    assert violations == [], (mode, storm.injections, violations[:5])
    assert storm.injections >= 1  # the storm actually did something

    # And the view still answers queries: one live row per base row that
    # the oracle says is in the view (rows that only ever received
    # materialized updates never enter it).
    reader = cluster.sync_client()
    total_rows = sum(
        len(reader.get_view("V", f"g{g}", ["m"], r=2)) for g in range(3))
    expected_rows = sum(
        1 for i in range(6)
        if reference.live_values_for(f"row{i}") is not None)
    assert total_rows == expected_rows > 0


# ---------------------------------------------------------------------------
# Lifecycle of the books
# ---------------------------------------------------------------------------


def counting_recoveries(cluster):
    """Record every ``recover_node`` call on ``cluster``."""
    calls = []
    original = cluster.recover_node
    cluster.recover_node = (
        lambda node_id: (calls.append(node_id), original(node_id)))
    return calls


def test_revive_skips_externally_recovered_node():
    """A node someone else already healed must not be recovered twice.

    ``recover_node`` on an up node would re-trigger hint replay; the
    adversary must only settle its own books when it finds its victim
    already up.
    """
    cluster = Cluster(make_config())
    cluster.create_table("T")
    adversary = Adversary()
    adversary.crash(cluster, 1, 50.0)
    cluster.recover_node(1)  # an external actor heals the node first
    calls = counting_recoveries(cluster)
    adversary.stop()
    assert calls == []
    assert adversary.holds("crash") == 0
    assert adversary.injections == 1


def test_pending_revive_after_stop_is_noop():
    """stop() heals everything; the pending revival then fires idly."""
    cluster = Cluster(make_config())
    cluster.create_table("T")
    adversary = Adversary()
    adversary.crash(cluster, 2, 50.0)
    calls = counting_recoveries(cluster)
    adversary.stop()
    assert not cluster.node(2).is_down
    assert calls == [2]
    cluster.run(until=200.0)  # the timer fires; the node is no longer held
    assert not cluster.node(2).is_down
    assert calls == [2]


def test_stop_is_idempotent():
    cluster = Cluster(make_config())
    cluster.create_table("T")
    adversary = Adversary()
    adversary.crash(cluster, 3, 50.0)
    calls = counting_recoveries(cluster)
    adversary.stop()
    adversary.stop()
    assert calls == [3]
    assert not cluster.node(3).is_down


def test_crash_hook_inert_after_stop():
    """stop() disarms an armed propagation loss: it never fires."""
    cluster = Cluster(make_config())
    cluster.create_table("T")
    cluster.create_view(VIEW)
    adversary = Adversary()
    adversary.lose(cluster, 1, 10.0)
    adversary.stop()
    assert cluster.view_manager._crash_hooks == []
    client = cluster.sync_client()
    client.put("T", "k", {"vk": "a", "m": 1})
    client.settle()
    assert adversary.injections == 0
    assert cluster.view_manager.lost_propagations == 0
    assert cluster.view_manager.completed_propagations >= 1
