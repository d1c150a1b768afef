"""Hit == walk: every chain walk a propagation skipped, made anyway.

A view-key propagation whose executor still holds the live row (it made
the row live and nobody has held the chain since —
``ViewMaintainer.propagate_update``) makes no ``GetLiveKey`` Get.  Here
a test-only wrapper issues that Get on every such hit, before the
propagation runs, and records any difference between what the walk
returns and what the executor remembered: live key, live timestamp and
the non-null materialized cells must be identical.

A chain's first job (turn 1) makes no ``GetLiveKey`` Get either: no cell
of the chain can exist yet, so it takes the virtual NULL anchor.  The
wrapper walks from the never-written NULL on each of those too, and the
walk must return that anchor with no cells.

A base Put whose coordinator holds every touched chain's live row at
the chain's current turn skips Algorithm 1's Get
(``views.drive.holds_live_rows``), on a prediction that its record will
skip the walk.  The wrapper also sorts those records by how the
prediction fared when each first reached ``propagate_update``: the
fence held (no job on the chain since the move), or it broke (another
job took the chain first, so the record walked from the held row or
the NULL anchor).  Both must occur, and every run must stay clean.

Run over the adversary x eager/adaptive matrix and over fuzzed
histories, under both serializers — the fuzzer and the matrix
themselves run only ``"locks"``.  Tier 2 (the CI ``scenarios`` job).
"""

from types import SimpleNamespace

import pytest

from repro.common.records import NULL_TIMESTAMP
from repro.errors import PropagationError, QuorumError
from repro.scenarios import (
    Scenario,
    ScenarioWorkload,
    default_config,
    generate_schedule,
    replay_schedule,
)
from repro.views import ViewKeyGuess, manager, skew
from repro.views.maintenance import ViewMaintainer
from repro.views.versioned import NULL_VIEW_KEY, view_column

from tests.scenarios.test_matrix import ADAPTIVE_OVERRIDES, ADVERSARY_STACKS

pytestmark = [pytest.mark.scenario, pytest.mark.slow]

SERIALIZERS = ("locks", "propagators")
FUZZ_SEEDS = range(120)


@pytest.fixture(autouse=True)
def faster_tick(monkeypatch):
    monkeypatch.setattr(skew, "FOLD_INTERVAL", 10.0)


@pytest.fixture
def shadow(monkeypatch):
    """Wrap ``propagate_update``: on a hit, first walk from the held row
    with the columns CopyData reads and compare; on a first turn, walk
    from the never-written NULL and expect the bare virtual anchor.  An
    adversary may eat the extra Get (``QuorumError``); that walk goes
    uncompared.  Records whose Put skipped its read are known by their
    ``update_values``, the dict a record's process hands
    ``propagate_update``."""
    seen = SimpleNamespace(hits=0, compared=0, mismatches=[], readless={},
                           fence_held=0, fence_broken=0, first_turns=0)
    real = ViewMaintainer.propagate_update
    real_process = manager.process_record

    def watched(view_manager, outbox, record):
        if any(collector is None for collector in record.sources):
            seen.readless[id(record.update_values)] = record
        return real_process(view_manager, outbox, record)

    def shadowed(self, coordinator, view, base_key, guess, update_values,
                 base_ts, turn=None, whole_row=False):
        entry = self._held[coordinator.node.node_id][view.name].get(base_key)
        fenced = entry is not None and entry.turn + 1 == turn
        if seen.readless.pop(id(update_values), None) is not None:
            if fenced:
                seen.fence_held += 1
            else:
                seen.fence_broken += 1
        columns = tuple(view_column(base_key, column)
                        for column in view.materialized_columns)
        if turn == 1:
            try:
                walked = yield from self.get_live_key(
                    coordinator, view, base_key,
                    ViewKeyGuess.from_cell(view, None), columns)
            except QuorumError:
                pass
            else:
                seen.first_turns += 1
                key, ts, merged = walked
                if (key, ts) != (NULL_VIEW_KEY, NULL_TIMESTAMP) or any(
                        cell.timestamp != NULL_TIMESTAMP
                        for cell in merged.values()):
                    seen.mismatches.append((base_key, "first turn", walked))
        elif fenced and view.view_key_column in update_values:
            seen.hits += 1
            try:
                key, ts, merged = yield from self.get_live_key(
                    coordinator, view, base_key,
                    ViewKeyGuess(entry.live_key, entry.live_ts), columns)
            except QuorumError:
                pass
            except PropagationError as exc:
                seen.mismatches.append((base_key, entry, repr(exc)))
            else:
                seen.compared += 1
                walked = (key, ts, {
                    column: cell for column, cell in merged.items()
                    if cell.timestamp != NULL_TIMESTAMP})
                if walked != (entry.live_key, entry.live_ts,
                              dict(entry.cells)):
                    seen.mismatches.append((base_key, entry, walked))
        result = yield from real(self, coordinator, view, base_key, guess,
                                 update_values, base_ts, turn, whole_row)
        return result

    monkeypatch.setattr(ViewMaintainer, "propagate_update", shadowed)
    monkeypatch.setattr(manager, "process_record", watched)
    return seen


@pytest.mark.parametrize("serializer", SERIALIZERS)
def test_every_hit_equals_its_walk_across_the_scenario_matrix(shadow,
                                                              serializer):
    for stack_name in sorted(ADVERSARY_STACKS):
        for overrides in ({}, ADAPTIVE_OVERRIDES):
            before = shadow.compared, shadow.first_turns
            scenario = Scenario(
                f"shadow/{stack_name}",
                config=default_config(seed=17,
                                      propagation_concurrency=serializer,
                                      **overrides),
                workload=ScenarioWorkload(ops=200),
                adversaries=ADVERSARY_STACKS[stack_name](),
            )
            result = scenario.run()
            assert result.ok, (result.name, overrides,
                               result.violations[:5])
            assert shadow.mismatches == [], (stack_name, overrides)
            # Not vacuous, cell by cell, and first turns were skipped.
            assert shadow.compared > before[0], (stack_name, overrides)
            assert shadow.first_turns > before[1], (stack_name, overrides)
    # A skipped read whose prediction held, and one whose fence broke.
    assert shadow.fence_held > 0
    assert shadow.fence_broken > 0


@pytest.mark.parametrize("serializer", SERIALIZERS)
def test_every_hit_equals_its_walk_across_fuzzed_histories(shadow,
                                                           serializer):
    for seed in FUZZ_SEEDS:
        first_turns = shadow.first_turns
        result = replay_schedule(
            generate_schedule(seed),
            config_overrides={"propagation_concurrency": serializer})
        assert result.ok, (seed, result.violations[:5])
        assert shadow.mismatches == [], seed
        assert shadow.first_turns > first_turns, seed
    assert shadow.compared > 0
    assert shadow.hits >= shadow.compared
    assert shadow.fence_held > 0
    assert shadow.fence_broken > 0
