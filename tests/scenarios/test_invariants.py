"""The invariant suite itself is not vacuous: broken state is caught."""

import pytest

from repro.scenarios import (
    Adversary,
    ClusterHealed,
    OutboxConservation,
    Scenario,
    ScenarioWorkload,
    SessionReadYourWrites,
    default_config,
)
from repro.scenarios.workload import SessionObservation

pytestmark = pytest.mark.scenario


class MessyAdversary(Adversary):
    """Cuts a link and downs a node, then 'forgets' to heal on stop."""

    name = "messy"

    def start(self, scenario):
        super().start(scenario)
        scenario.cluster.partition(0, 1)
        scenario.cluster.fail_node(3)
        scenario.cluster.slow_node(2, cpu_factor=4.0, link_factor=4.0)


def test_cluster_healed_invariant_catches_leftover_damage():
    scenario = Scenario(
        "messy",
        config=default_config(seed=5),
        workload=ScenarioWorkload(ops=20),
        adversaries=[MessyAdversary()],
    )
    result = scenario.run()
    healed_violations = [violation for violation in result.violations
                         if violation.startswith(ClusterHealed.name)]
    assert any("partition 0<->1" in violation
               for violation in healed_violations)
    assert any("node 3 still down" in violation
               for violation in healed_violations)
    assert any("slowdown" in violation for violation in healed_violations)
    # The runner still healed everything before judging state, so the
    # *other* invariants hold despite the adversary's bad manners.
    others = [violation for violation in result.violations
              if not violation.startswith(ClusterHealed.name)]
    assert others == [], others


def test_session_invariant_flags_unexcused_miss():
    """A fabricated observation that missed its own write is reported."""
    scenario = Scenario("session", config=default_config(seed=6),
                        workload=ScenarioWorkload(ops=10))
    result = scenario.run()
    assert result.ok, result.violations
    # Forge a miss: the session supposedly read view key g0 right after
    # writing base key kX there, and saw nothing.  No higher-timestamp
    # write to kX exists and nothing was lost, so no excuse applies.
    scenario.workload.observations.append(SessionObservation(
        client_id=99, base_key="kX", view_key="g0",
        put_ts=10**9, at=0.0, rows=[]))
    violations = SessionReadYourWrites().check(scenario)
    assert len(violations) == 1
    assert "kX" in violations[0]


def test_session_invariant_excuses_superseded_rows():
    scenario = Scenario("session2", config=default_config(seed=7),
                        workload=ScenarioWorkload(ops=10))
    result = scenario.run()
    assert result.ok, result.violations
    workload = scenario.workload
    # A miss excused by a newer applied write that moved the row.
    workload.observations.append(SessionObservation(
        client_id=99, base_key="kY", view_key="g0",
        put_ts=5, at=0.0, rows=[]))
    workload.record_acked("kY", {"vk": "g1"}, 10**9)
    assert SessionReadYourWrites().check(scenario) == []


def test_outbox_conservation_flags_a_worker_slot_never_returned():
    scenario = Scenario("workers", config=default_config(seed=8),
                        workload=ScenarioWorkload(ops=10))
    result = scenario.run()
    assert result.ok, result.violations
    # Forge a leak: someone took node 2's worker and never gave it back.
    scenario.cluster.view_manager._outboxes[2].workers.acquire()
    (violation,) = OutboxConservation().check(scenario)
    assert "worker slots still held" in violation and "{2: 1}" in violation
