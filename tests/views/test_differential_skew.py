"""Differential test: eager vs adaptive heavy/light maintenance.

Adaptive maintenance (``repro.views.skew``) is an alternative execution
strategy for the same view algorithms, so a fixed seeded history
replayed through each mode must converge to the same place.  Two
strengths, mirroring the golden-fixture pipeline differential:

- **Paced history** (nothing promotes, so nothing folds): the final
  base and view backing tables are *byte-identical* — ``state_digest``
  equality over every cell, timestamp, and tombstone.
- **Hot history** (the head key promotes and folds): the backing tables
  may differ in stale-chain residue — folding legitimately skips
  intermediate view-key transitions, so their stale rows and tombstones
  never materialize — but the *live* view state (everything
  Algorithm 4 can return) and actual session read results must match
  exactly after quiescence.
"""

import pytest

from repro.scenarios import SCENARIO_VIEW, Scenario, default_config
from repro.scenarios.fuzzer import ScheduleWorkload
from repro.views import live_state_digest, skew, state_digest

pytestmark = pytest.mark.scenario


def make_ops(*, count=36, gap, hot_every=2, keys=5, view_keys=4):
    """``count`` puts, ``gap`` ms apart, every ``hot_every``-th on k0."""
    ops = []
    for i in range(count):
        key = "k0" if i % hot_every == 0 else f"k{1 + i % (keys - 1)}"
        ops.append({
            "t": 1.0 + i * gap,
            "kind": "put",
            "key": key,
            "cells": {"vk": f"g{i % view_keys}", "m": f"m{i}"},
            "ts": (i + 1) * 100,
        })
    return ops


@pytest.fixture(autouse=True)
def faster_tick(monkeypatch):
    monkeypatch.setattr(skew, "FOLD_INTERVAL", 10.0)


def run_mode(adaptive, ops, *, seed=1):
    overrides = {}
    if adaptive:
        overrides = dict(skew_adaptive=True)
    scenario = Scenario(
        f"differential-{'adaptive' if adaptive else 'eager'}",
        config=default_config(seed=seed, **overrides),
        workload=ScheduleWorkload(ops),
        scrub=True,
    )
    result = scenario.run()
    assert result.ok, (adaptive, result.violations[:5])
    return scenario, result


def session_reads(scenario, view_keys=4):
    """Read every view key through a fresh session; return the rows."""
    cluster = scenario.cluster
    client = cluster.sync_client()
    client.begin_session()
    reads = {}
    for g in range(view_keys):
        results = client.get_view(SCENARIO_VIEW.name, f"g{g}", ("m",), r=2)
        reads[f"g{g}"] = sorted(
            (res.base_key, res.values["m"]) for res in results)
    client.end_session()
    return reads


def test_paced_history_is_byte_identical(monkeypatch):
    """Nothing promotes: every cell of both tables matches exactly."""
    ops = make_ops(gap=25.0)
    # A short half-life decays per-key counts between 25 ms-spaced
    # arrivals, so the tracker never classifies anything heavy and the
    # adaptive run degenerates to plain eager maintenance.
    monkeypatch.setattr(skew, "DECAY_HALF_LIFE", 5.0)
    monkeypatch.setattr(skew, "PROMOTE_THRESHOLD", 6.0)
    adaptive, adaptive_result = run_mode(True, ops)
    eager, eager_result = run_mode(False, ops)
    assert adaptive.cluster.view_manager.outbox_stats()["folded"] == 0
    assert adaptive_result.base_digest == eager_result.base_digest
    assert adaptive_result.view_digest == eager_result.view_digest
    assert (state_digest(adaptive.cluster, "T")
            == state_digest(eager.cluster, "T"))
    assert session_reads(adaptive) == session_reads(eager)


def test_hot_history_matches_live_state_and_reads():
    """The head key folds: live view state and reads still match."""
    ops = make_ops(count=48, gap=0.5, hot_every=2)
    adaptive, adaptive_result = run_mode(True, ops)
    eager, eager_result = run_mode(False, ops)
    # The hot key actually promoted and folded — the differential would
    # be vacuous otherwise.
    assert adaptive.cluster.view_manager.outbox_stats()["folded"] > 0
    # Base tables are byte-identical regardless of maintenance mode.
    assert adaptive_result.base_digest == eager_result.base_digest
    # Live view content is identical even though the backing tables
    # differ in stale residue (folded transitions never materialize).
    assert (live_state_digest(adaptive.cluster, SCENARIO_VIEW)
            == live_state_digest(eager.cluster, SCENARIO_VIEW))
    assert session_reads(adaptive) == session_reads(eager)


def test_differential_holds_across_seeds():
    """Sweep a few seeds at tier-1 cost; live state must always agree."""
    for seed in (3, 8):
        ops = make_ops(count=30, gap=1.0)
        adaptive, _ = run_mode(True, ops, seed=seed)
        eager, _ = run_mode(False, ops, seed=seed)
        assert (live_state_digest(adaptive.cluster, SCENARIO_VIEW)
                == live_state_digest(eager.cluster, SCENARIO_VIEW))
        assert session_reads(adaptive) == session_reads(eager)
