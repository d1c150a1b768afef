"""Differential test: the outbox against recorded reference runs.

``fixtures/pipeline-golden.json`` holds, for each fixed seeded schedule
below, the converged state a one-driver-process-per-Put propagation
path produced (an independent implementation of the same algorithms
with no log, no batching and no coalescing).  The outbox replaying the
same history must converge to the same place.  The contract has two
strengths:

- **Paced history** (no backlog, so the outbox never coalesces): the
  final base and view backing tables are *byte-identical* —
  ``state_digest`` equality over every cell, timestamp, and tombstone.
- **Bursty history** (coalescing fires): the backing tables may differ
  in stale-chain residue — coalescing legitimately skips intermediate
  versions, so their stale rows and tombstones never materialize —
  but the *live* view state (everything Algorithm 4 can return) and
  actual session read results must match exactly.

The digests are SHA-256 over sorted ``repr``s, so the fixture is stable
across Python versions.

The three paced ``view_digest`` values were re-recorded once, from the
outbox, when a view entry shrank from four cells to two (no stored
``B``; the Init mark became a phase of the self-pointer's timestamp).
The first view write to differ is the first propagation's line-4 Put
(``k0`` into ``g0``), which no longer carries a ``B`` or ``Init`` cell.
Every base digest, live-state digest and session read is unchanged;
the bursty schedule's ``view_digest`` (not asserted) is still the
reference run's.
"""

import json
from pathlib import Path

import pytest

from repro.scenarios import SCENARIO_VIEW, Scenario, default_config
from repro.scenarios.fuzzer import ScheduleWorkload
from repro.views import live_state_digest, state_digest

pytestmark = pytest.mark.scenario

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "pipeline-golden.json").read_text())


def make_ops(*, count, gap, keys=3, view_keys=4):
    """A fixed schedule: ``count`` puts, ``gap`` ms apart."""
    ops = []
    for i in range(count):
        ops.append({
            "t": 1.0 + i * gap,
            "kind": "put",
            "key": f"k{i % keys}",
            "cells": {"vk": f"g{i % view_keys}", "m": f"m{i}"},
            "ts": (i + 1) * 100,
        })
    return ops


def run_golden(name):
    """Replay the named schedule; return (scenario, result, reference)."""
    golden = GOLDEN[name]
    scenario = Scenario(
        f"differential-{name}",
        config=default_config(seed=golden["seed"]),
        workload=ScheduleWorkload(
            make_ops(count=golden["count"], gap=golden["gap"])),
        scrub=False,
    )
    result = scenario.run()
    assert result.ok, (name, result.violations[:5])
    return scenario, result, golden


def session_reads(scenario, view_keys=4):
    """Read every view key through a fresh session; return the rows in
    the fixture's JSON shape."""
    cluster = scenario.cluster
    client = cluster.sync_client()
    client.begin_session()
    reads = {}
    for g in range(view_keys):
        results = client.get_view(SCENARIO_VIEW.name, f"g{g}", ("m",), r=2)
        reads[f"g{g}"] = sorted(
            [res.base_key, list(res.values["m"])] for res in results)
    client.end_session()
    return reads


def test_paced_history_is_byte_identical():
    """No coalescing: every cell of both tables matches exactly."""
    scenario, result, golden = run_golden("paced")
    assert scenario.cluster.view_manager.outbox_stats()["coalesced"] == 0
    assert result.base_digest == golden["base_digest"]
    assert result.view_digest == golden["view_digest"]
    assert state_digest(scenario.cluster, "T") == golden["state_digest_T"]
    assert session_reads(scenario) == golden["session_reads"]


def test_bursty_history_matches_live_state_and_reads():
    """Coalescing fires: live view state and read results still match."""
    scenario, result, golden = run_golden("bursty")
    # The burst actually made the outbox coalesce — the differential
    # would be vacuous otherwise.
    assert scenario.cluster.view_manager.outbox_stats()["coalesced"] > 0
    # Base tables are byte-identical regardless of how propagation ran.
    assert result.base_digest == golden["base_digest"]
    # Live view content is identical even though the backing tables
    # differ in stale residue.
    assert (live_state_digest(scenario.cluster, SCENARIO_VIEW)
            == golden["live_state_digest"])
    assert session_reads(scenario) == golden["session_reads"]


@pytest.mark.parametrize("name", ["paced-seed3", "paced-seed8"])
def test_differential_holds_across_seeds(name):
    """A few more pacing/seed combinations at tier-1 cost."""
    _, result, golden = run_golden(name)
    assert result.view_digest == golden["view_digest"]
    assert result.base_digest == golden["base_digest"]
