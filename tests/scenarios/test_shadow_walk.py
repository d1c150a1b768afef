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

A base Put skips Algorithm 1's Get (``views.drive.skips_base_read``)
when, by the turns a sequencer peek brought back, every touched chain
is *held* (its coordinator holds the live row at that turn: a
prediction that its record will skip the walk) or *pristine* (turn 0:
a prediction that its record will take the chain's first turn).  The
wrapper sorts those records by kind and by how the prediction fared
when each first reached ``propagate_update``.  A held record's fence
held (no job on the chain since the move), or it broke (another job
took the chain first, so the record walked from the held row or the
NULL anchor).  A pristine record won turn 1, or lost it to another
job and ran from its sure guesses.  All four must occur (a pristine
record losing its turn, only in the fuzzed histories), and every run
must stay clean.

Run over the adversary x eager/adaptive matrix and over fuzzed
histories, under both serializers — the fuzzer and the matrix
themselves run only ``"locks"``.  Tier 2 (the CI ``scenarios`` job).
"""

from types import SimpleNamespace

import pytest

from repro.cluster.coordinator import Coordinator
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
    ``propagate_update``; their kind by the peeked turns, noted when the
    Put's base write (sent in the same instant as the decision) names
    its timestamp."""
    seen = SimpleNamespace(hits=0, compared=0, mismatches=[], readless={},
                           fence_held=0, fence_broken=0, first_turns=0,
                           pristine_won=0, pristine_lost=0, skipped=None,
                           kinds={})
    real = ViewMaintainer.propagate_update
    real_process = manager.process_record
    real_skips = manager.skips_base_read
    real_write = Coordinator.scatter_write

    def skips(view_manager, node_id, views, key, turns):
        skipped = real_skips(view_manager, node_id, views, key, turns)
        if skipped:
            seen.skipped = "held" if any(turns) else "pristine"
        return skipped

    def write(self, table, key, cells, required):
        if seen.skipped is not None:
            base_ts = max(cell.timestamp for cell in cells.values())
            seen.kinds[self.node.node_id, key, base_ts] = seen.skipped
            seen.skipped = None
        return real_write(self, table, key, cells, required)

    def watched(view_manager, outbox, record):
        kind = seen.kinds.get((outbox.node_id, record.key, record.base_ts))
        if kind is not None and None in record.sources:
            seen.readless[id(record.update_values)] = kind
        return real_process(view_manager, outbox, record)

    def shadowed(self, coordinator, view, base_key, guess, update_values,
                 base_ts, turn=None, whole_row=False):
        entry = self._held[coordinator.node.node_id][view.name].get(base_key)
        fenced = entry is not None and entry.turn + 1 == turn
        kind = seen.readless.pop(id(update_values), None)
        if kind == "held":
            if fenced:
                seen.fence_held += 1
            else:
                seen.fence_broken += 1
        elif kind == "pristine":
            if turn == 1:
                seen.pristine_won += 1
            else:
                seen.pristine_lost += 1
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
    monkeypatch.setattr(manager, "skips_base_read", skips)
    monkeypatch.setattr(Coordinator, "scatter_write", write)
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
    # A held row's skipped read whose prediction held, and one whose
    # fence broke; a pristine one that won turn 1 (one that lost it is
    # left to the fuzzed histories: six rows a run, each first Put
    # milliseconds apart, never race here).
    assert shadow.fence_held > 0
    assert shadow.fence_broken > 0
    assert shadow.pristine_won > 0


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
    # Pristine records both won turn 1 and lost it to another job.
    assert shadow.pristine_won > 0
    assert shadow.pristine_lost > 0
