"""Property test: adaptive heavy/light maintenance converges under fire.

Hypothesis drives Zipf-skewed scenario workloads (the head key hammers
one chain, exactly what promotes it to heavy) under ``BurstArrivals``
(floored inter-arrival gaps pile updates into the fold path) stacked
with ``CrashLoop`` (a crash-looping coordinator loses and re-drives
propagations).  After the storm the runner's quiescence drains the
outboxes — fold windows included — and scrubs until base and view
agree; then the standing invariant suite must hold: oracle agreement,
outbox conservation (folded records are coalesced records; nothing
pending survives quiescence), session guarantees with no excuse for a
fold, and the queue bounds with and without tokens.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scenarios import (
    BurstArrivals,
    CrashLoop,
    Scenario,
    ScenarioWorkload,
    default_config,
)
from repro.views import skew
from repro.workloads import ZipfianKeys

pytestmark = pytest.mark.scenario


@pytest.fixture(autouse=True, scope="module")
def faster_tick():
    # Module-scoped: hypothesis rejects function-scoped fixtures.
    with mock.patch.object(skew, "FOLD_INTERVAL", 10.0):
        yield

ADAPTIVE = dict(skew_adaptive=True)


def run_storm(*, seed, theta, ops, population=12):
    scenario = Scenario(
        f"skew-property-{seed}",
        config=default_config(seed=seed, **ADAPTIVE),
        workload=ScenarioWorkload(
            ops=ops, key_chooser=ZipfianKeys(population, theta)),
        adversaries=[BurstArrivals(), CrashLoop(victim=0)],
    )
    result = scenario.run()
    assert result.ok, (result.name, result.violations[:5], result.stats)
    return scenario, result


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    theta=st.sampled_from([0.8, 1.1, 1.4]),
    ops=st.integers(min_value=40, max_value=70),
)
def test_adaptive_converges_to_oracle_under_burst_and_crashloop(
        seed, theta, ops):
    scenario, result = run_storm(seed=seed, theta=theta, ops=ops)
    assert result.stats["acked_ops"] > 0
    # Quiescence left no survivor waiting out a window behind.
    assert scenario.cluster.view_manager.pending_propagations == 0


def test_hot_storm_actually_folds():
    """The property is not vacuous: a hot head promotes and folds."""
    scenario, _result = run_storm(seed=5, theta=1.4, ops=90, population=6)
    manager = scenario.cluster.view_manager
    stats = manager.outbox_stats()
    assert 0 < stats["folded"] <= stats["coalesced"]
    assert manager.skew_stats()["promotions"] > 0
    assert manager.pending_propagations == 0
