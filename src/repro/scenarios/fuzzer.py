"""History fuzzer: random op/fault schedules, replay, ddmin shrinking.

A :class:`Schedule` is a serializable history: timestamped Put /
view-read operations plus timestamped fault injections (crashes,
partitions, gray slowdowns).  Everything about it is explicit —
absolute simulated times and client-supplied update timestamps are
baked into the entries — so a schedule replays bit-for-bit from its
JSON form, and removing entries never shifts the rest (the property
ddmin shrinking depends on).

The pipeline:

- :func:`generate_schedule` derives a schedule from a seed.  Update
  timestamps are a random permutation of issue order, modelling
  arbitrarily skewed client clocks.  Every fifth seed also creates the
  view (and starts its load) mid-history, over a populated table.
- :func:`replay_schedule` executes a schedule through the ordinary
  :class:`~repro.scenarios.runner.Scenario` machinery — the ops become
  a :class:`ScheduleWorkload`, the faults a :class:`ScheduledFaults`
  adversary — and judges the standing invariant suite.  A kernel
  event budget cuts off runaway histories.
- :func:`shrink_schedule` minimizes a failing schedule with ddmin
  (chunk removal at doubling granularity, then a one-at-a-time pass),
  replaying after each candidate removal.
- :func:`fuzz` loops seeds through generate → replay → shrink and
  serializes every shrunk reproducer to disk for triage and for
  committing as a regression fixture (see ``save_reproducer`` /
  ``load_schedule``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.scenarios.adversaries import Adversary
from repro.scenarios.runner import Scenario, ScenarioResult, default_config
from repro.scenarios.workload import BaseWorkload, retrying
from repro.sim.rng import derive_seed

__all__ = [
    "SCHEDULE_FORMAT",
    "Schedule",
    "ScheduleWorkload",
    "ScheduledFaults",
    "FuzzFailure",
    "generate_schedule",
    "replay_schedule",
    "shrink_schedule",
    "fuzz",
    "save_reproducer",
    "load_schedule",
]

SCHEDULE_FORMAT = 1

CREATE_VIEW_EVERY = 5  # seeds 4, 9, 14, ... create the view mid-history

# Generated schedules are bounded histories; anything that needs more
# kernel events than this is livelocked, and the replay reports it as
# a violation instead of hanging.
DEFAULT_EVENT_BUDGET = 3_000_000


@dataclass
class Schedule:
    """One serialized history: ops and faults on an absolute clock."""

    seed: int
    ops: List[Dict[str, Any]] = field(default_factory=list)
    faults: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": SCHEDULE_FORMAT,
            "seed": self.seed,
            "ops": self.ops,
            "faults": self.faults,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Schedule":
        version = data.get("format", SCHEDULE_FORMAT)
        if version != SCHEDULE_FORMAT:
            raise ValueError(
                f"unsupported schedule format {version!r} "
                f"(expected {SCHEDULE_FORMAT})")
        # Reproducers written while a second propagation pipeline
        # existed name theirs; only "outbox" histories can be replayed.
        if data.get("pipeline", "outbox") != "outbox":
            raise ValueError(
                f"schedule was recorded on the {data['pipeline']!r} "
                "propagation pipeline, which has been removed")
        return cls(seed=data["seed"], ops=list(data["ops"]),
                   faults=list(data["faults"]))


def generate_schedule(seed: int, *, ops: int = 30, faults: int = 6,
                      horizon: float = 400.0,
                      base_keys: int = 4, view_keys: int = 3) -> Schedule:
    """Derive a random bounded history from ``seed``.

    Puts carry explicit timestamps drawn as a shuffled permutation of
    issue order (times 100): a Put issued later in wall-clock time can
    carry an *older* LWW timestamp, exactly what skewed client clocks
    produce.  Faults are crashes, partitions, and gray slowdowns with
    bounded durations, all healed well inside the horizon.  A
    ``create_view`` op is drawn after every other entry, which it leaves
    as they would be without it.
    """
    rng = random.Random(derive_seed(seed, "scenario-fuzz"))
    schedule = Schedule(seed=seed)

    n_puts = max(1, round(ops * 0.8))
    ranks = list(range(1, n_puts + 1))
    rng.shuffle(ranks)
    for i in range(ops):
        t = round(rng.uniform(1.0, horizon * 0.75), 1)
        if i < n_puts:
            key = f"k{rng.randrange(base_keys)}"
            roll = rng.random()
            if roll < 0.15:
                cells: Dict[str, Any] = {"vk": None}
            elif roll < 0.4:
                cells = {"m": f"m{i}"}
            else:
                cells = {"vk": f"g{rng.randrange(view_keys)}",
                         "m": f"m{i}"}
            schedule.ops.append({"t": t, "kind": "put", "key": key,
                                 "cells": cells, "ts": ranks[i] * 100})
        else:
            schedule.ops.append({"t": t, "kind": "get_view",
                                 "view_key": f"g{rng.randrange(view_keys)}"})
    for _ in range(faults):
        t = round(rng.uniform(1.0, horizon * 0.6), 1)
        kind = rng.choice(("crash", "partition", "slow", "lose"))
        if kind == "lose":
            # Arm the paper's signature failure: the coordinator crashes
            # mid-propagation, the acked base Put's view update vanishes
            # with its volatile state, and the view silently diverges
            # until the scrubber (if any) heals it.
            schedule.faults.append({
                "t": t, "kind": "lose",
                "count": rng.randrange(1, 3),
                "down": round(rng.uniform(10.0, 40.0), 1)})
        elif kind == "crash":
            schedule.faults.append({
                "t": t, "kind": "crash",
                "node": rng.randrange(4),
                "down": round(rng.uniform(10.0, 60.0), 1)})
        elif kind == "partition":
            a, b = rng.sample(range(4), 2)
            schedule.faults.append({
                "t": t, "kind": "partition",
                "a": min(a, b), "b": max(a, b),
                "duration": round(rng.uniform(10.0, 50.0), 1)})
        else:
            schedule.faults.append({
                "t": t, "kind": "slow",
                "node": rng.randrange(4),
                "cpu": round(rng.uniform(2.0, 10.0), 1),
                "link": round(rng.uniform(2.0, 10.0), 1),
                "duration": round(rng.uniform(10.0, 60.0), 1)})
    if seed % CREATE_VIEW_EVERY == CREATE_VIEW_EVERY - 1:
        schedule.ops.append({"t": round(rng.uniform(1.0, horizon * 0.75), 1),
                             "kind": "create_view"})
    schedule.ops.sort(key=lambda e: e["t"])
    schedule.faults.sort(key=lambda e: e["t"])
    return schedule


class ScheduleWorkload(BaseWorkload):
    """Replays a schedule's operation entries at their recorded times.

    Each Put runs as its own child process (a slow retry loop must not
    delay later entries); the workload completes when the timeline is
    exhausted and every child has finished.  Retries rotate
    coordinators with the entry's fixed timestamp, exactly like the
    random workload.  A ``create_view`` entry creates the view and loads
    it in one more child; view reads before it are not issued.
    """

    MAX_ATTEMPTS = 30  # attempts per entry before it is given up

    def __init__(self, ops: List[Dict[str, Any]]):
        super().__init__()
        self.ops = sorted(ops, key=lambda e: e["t"])
        self.creates_view = any(e["kind"] == "create_view" for e in self.ops)

    def run(self, scenario):
        cluster = scenario.cluster
        env = cluster.env
        pool = [cluster.client(coordinator_id=cid)
                for cid in range(cluster.config.nodes)]
        scenario.client_ids.update(h.client_id for h in pool)
        children = []
        for index, entry in enumerate(self.ops):
            if entry["t"] > env.now:
                yield env.timeout(entry["t"] - env.now)
            if entry["kind"] == "put":
                runner = self._put(scenario, pool, index, entry["key"],
                                   entry["cells"], entry["ts"])
            elif entry["kind"] == "create_view":
                runner = self._create_view(scenario)
            elif not cluster.view_manager.is_view(scenario.view.name):
                continue
            else:
                runner = self._read(scenario, pool, index, entry)
            children.append(env.process(runner, name=f"fuzz-op-{index}"))
        for child in children:
            yield child

    def _create_view(self, scenario):
        cluster = scenario.cluster
        cluster.create_view(scenario.view)
        yield from cluster.backfill(scenario.view.name)

    def _read(self, scenario, pool, index, entry):
        read, _ = yield from retrying(
            scenario.cluster.env, pool, index,
            lambda client: client.get_view(
                scenario.view.name, entry["view_key"],
                scenario.view.materialized_columns, self.R),
            self.MAX_ATTEMPTS)
        if read:
            self.reads_done += 1
        else:
            self.reads_failed += 1


class ScheduledFaults(Adversary):
    """Replays a schedule's fault entries at their recorded times
    through the :class:`Adversary` fault methods."""

    name = "scheduled-faults"

    def __init__(self, faults: List[Dict[str, Any]]):
        super().__init__()
        self.faults = sorted(faults, key=lambda e: e["t"])

    def start(self, scenario) -> None:
        super().start(scenario)
        scenario.cluster.env.process(self._driver(scenario),
                                     name=f"{self.label}-driver")

    def _driver(self, scenario):
        cluster = scenario.cluster
        env = cluster.env
        for entry in self.faults:
            if entry["t"] > env.now:
                yield env.timeout(entry["t"] - env.now)
            if self._stopped:
                return
            kind = entry["kind"]
            if kind == "lose":
                self.lose(cluster, entry["count"], entry["down"])
            elif kind == "crash":
                self.crash(cluster, entry["node"], entry["down"])
            elif kind == "partition":
                self.cut(cluster, entry["a"], entry["b"], entry["duration"])
            elif kind == "slow":
                self.slow(cluster, entry["node"], entry["cpu"],
                          entry["link"], entry["duration"])


def replay_schedule(schedule: Schedule, *, scrub: bool = True,
                    event_budget: int = DEFAULT_EVENT_BUDGET,
                    config_overrides: Optional[Dict[str, Any]] = None
                    ) -> ScenarioResult:
    """Deterministically replay a schedule through the scenario runner.

    Same schedule (and flags) in, same :class:`ScenarioResult` digest
    out — the determinism the shrinker and the committed regression
    fixtures rely on.  ``scrub=False`` replays without the repair
    subsystem, which keeps divergence caused by lost propagations
    visible to the invariant suite instead of healing it.
    """
    config = default_config(seed=schedule.seed, **(config_overrides or {}))
    scenario = Scenario(
        name=f"fuzz-{schedule.seed}",
        config=config,
        workload=ScheduleWorkload(schedule.ops),
        adversaries=[ScheduledFaults(schedule.faults)],
        scrub=scrub,
        event_budget=event_budget,
    )
    return scenario.run()


def _default_predicate(result: ScenarioResult) -> bool:
    return not result.ok


def shrink_schedule(schedule: Schedule,
                    predicate: Optional[Callable[[ScenarioResult], bool]]
                    = None,
                    *, scrub: bool = True, max_replays: int = 200
                    ) -> Tuple[Schedule, int]:
    """ddmin: remove entry chunks while the failure reproduces.

    Entries carry absolute times, so removing some never shifts the
    rest — each candidate subset is itself a valid schedule.  Returns
    the minimal schedule found and the number of replays spent.

    ``scrub`` and ``predicate`` must match how the failure was found:
    a divergence the scrubber heals never fails under ``scrub=True``,
    so the full schedule is replayed first and a schedule that does not
    fail at all raises ``ValueError`` instead of silently returning it
    unshrunk.
    """
    predicate = predicate or _default_predicate
    entries = ([("op", entry) for entry in schedule.ops]
               + [("fault", entry) for entry in schedule.faults])
    if not predicate(replay_schedule(schedule, scrub=scrub)):
        raise ValueError(
            "the full schedule does not fail under these settings; "
            "pass the same scrub=/predicate= used when the failure was "
            "found (a scrubber-healable divergence needs scrub=False)")
    replays = 1

    def rebuild(subset) -> Schedule:
        return Schedule(
            seed=schedule.seed,
            ops=[entry for kind, entry in subset if kind == "op"],
            faults=[entry for kind, entry in subset if kind == "fault"])

    def still_fails(subset) -> bool:
        nonlocal replays
        replays += 1
        return predicate(replay_schedule(rebuild(subset), scrub=scrub))

    granularity = 2
    while len(entries) >= 2 and replays < max_replays:
        chunk = max(1, len(entries) // granularity)
        reduced = False
        start = 0
        while start < len(entries) and replays < max_replays:
            candidate = entries[:start] + entries[start + chunk:]
            if candidate and still_fails(candidate):
                entries = candidate
                reduced = True
            else:
                start += chunk
        if reduced:
            granularity = max(granularity - 1, 2)
        elif chunk == 1:
            break
        else:
            granularity = min(granularity * 2, len(entries))
    return rebuild(entries), replays


@dataclass
class FuzzFailure:
    """One failing seed with its shrunk reproducer."""

    seed: int
    schedule: Schedule
    result: ScenarioResult
    replays: int
    artifact: Optional[str] = None


def fuzz(seeds, *, ops: int = 30, faults: int = 6, scrub: bool = True,
         predicate: Optional[Callable[[ScenarioResult], bool]] = None,
         shrink: bool = True,
         artifacts_dir: Optional[str] = None) -> List[FuzzFailure]:
    """Generate → replay → shrink a batch of seeds; collect failures.

    ``predicate`` decides what counts as failing (default: any
    invariant violation).  With ``artifacts_dir``, every shrunk
    reproducer is serialized there as
    ``reproducer-seed<seed>.json`` — the files CI uploads on failure
    and developers commit as regression fixtures.
    """
    predicate = predicate or _default_predicate
    failures: List[FuzzFailure] = []
    for seed in seeds:
        schedule = generate_schedule(seed, ops=ops, faults=faults)
        result = replay_schedule(schedule, scrub=scrub)
        if not predicate(result):
            continue
        replays = 0
        if shrink:
            schedule, replays = shrink_schedule(schedule, predicate,
                                                scrub=scrub)
            result = replay_schedule(schedule, scrub=scrub)
        artifact = None
        if artifacts_dir is not None:
            path = Path(artifacts_dir)
            path.mkdir(parents=True, exist_ok=True)
            artifact = str(path / f"reproducer-seed{seed}.json")
            save_reproducer(artifact, schedule, result)
        failures.append(FuzzFailure(seed=seed, schedule=schedule,
                                    result=result, replays=replays,
                                    artifact=artifact))
    return failures


def save_reproducer(path, schedule: Schedule,
                    result: Optional[ScenarioResult] = None) -> None:
    """Serialize a schedule (plus expected outcome) as JSON."""
    payload = schedule.to_dict()
    if result is not None:
        payload["expect"] = {
            "digest": result.digest,
            "base_digest": result.base_digest,
            "view_digest": result.view_digest,
            "violations": result.violations,
        }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")


def load_schedule(path) -> Tuple[Schedule, Dict[str, Any]]:
    """Load a serialized schedule; returns ``(schedule, expectations)``.

    ``expectations`` is the ``expect`` block written by
    :func:`save_reproducer` (empty dict if absent).
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return Schedule.from_dict(data), data.get("expect", {})
