"""The fault injectors did not move.

Every fault an injector deals goes through seven ``Cluster`` methods
(``fail_node``, ``recover_node``, ``partition``, ``heal_partition``,
``slow_node``, ``restore_node_speed``, ``set_clock_skew``) or through
``Scenario.arrival_scale``.  This recording wraps those calls on each
cluster instance and logs ``(env.now, call, args)``, ``repr``-exact,
plus every arrival-scale change and the run's final
``lost_propagations``, over:

- every E4 stack (``ext_adversary.ADVERSARY_STACKS``, full size);
- the committed shrunk reproducer ``shrunk-lost-propagation.json``;
- two generated fuzz schedules holding all four fault kinds;
- a quick E2 (``ext_repair``) and a quick E6 (``ext_staleness``) run,
  whose propagation losses are armed on a bare cluster.

A refactor of the injectors must leave the recording identical: the
same faults, healed at the same instants, in the same order.

Re-recorded once for a change to the workload under the injectors, not
to them: a partial read ranks its replicas by when each could start
serving it.  Only runs that route a read elsewhere moved, each after
its first such read.

- gray-failure: node 1's chain-walk Get of the view's NULL anchor
  (R = 2) at 117.89 ms asked nodes 2 and 3 where the fixed order asked
  2 and 0.  The workload ends sooner, so ``stop()``'s heal (four
  ``restore_node_speed`` calls and the arrival scale) moved from
  723.18 to 717.26 ms.  Every fault it dealt is unchanged.
- E6's three quick cells: node 0's chain-walk Get of ``BASE_BY_GRP``'s
  NULL anchor at 26.75 ms was the first.  Their crashes fire on a
  propagation count, so each crash and recovery moved by at most
  0.04 ms (the first: 240.0348 to 240.0494 ms in cell 0).

E2 routes one read elsewhere per run and deals the same faults.  The
shrunk reproducer and the fuzz schedules route none and are identical.

In the same change the scrubber stopped judging a row whose chain had a
record appended after the round's backlog check.  Two E4 runs had
"repaired" such rows, moves caught in flight: two in clock-skew, one in
burst-arrivals.  Without those no-op repairs each run quiesces 0.596 ms sooner, so only
``stop()``'s heal moved: 528.47 to 527.87 ms and 387.62 to 387.03 ms.
Every fault they dealt is unchanged.

Re-recorded once more when the scrubber stopped deferring a whole view
while any of its records was pending and began judging chain by chain:
a round that used to skip the view now verifies the rows whose chains
are quiet, and those quorum reads shift two runs.  The first entry that
differs is gray-failure's final heal (``stop()``'s four
``restore_node_speed`` calls and the arrival scale), 717.26 to
717.18 ms.  Crash-storm's workload ends 20 ms sooner, so node 3, down
at the end, is recovered by ``stop()``'s heal at 656.84 ms instead of
by its scheduled revival at 676.16 ms (the heal was at 676.84 ms).
Every other run is identical, and so is every fault dealt before the
final heals.

Re-recorded again when a view entry shrank from four cells to two (no
stored ``B``; the Init mark became a phase of the self-pointer's
timestamp), which charges every view-row write and read for fewer
cells, so workloads finish sooner.  In E4 only ``stop()``'s final heal
moved, and it is the first entry to differ in each stack:
partition-storm 1946.81 to 1945.68 ms, clock-skew 527.87 to 524.73,
crash-loop 643.36 to 624.93, burst-arrivals 387.03 to 384.97, stacked
2130.74 to 2127.13.  Gray-failure's workload now ends at 712.29 ms,
before node 3's scheduled restore at 712.84, so ``stop()`` releases
node 3 (the heal was at 717.18).  Crash-storm's ends at 651.97 ms,
before node 3's scheduled crash at 653.44, so that crash and its
recovery are no longer dealt (the heal was at 656.84).  E2 and E6
crash on a propagation count, so each crash moved by at most 0.031 ms;
the first entry to differ is E6 cell 0's first crash, 240.0494 to
240.0348 ms.  The shrunk reproducer, the fuzz schedules and E2 with
the scrubber off are identical, and every run loses as many
propagations as before.

Re-recorded when a serialized walk from the NULL anchor that takes more
than two hops began to end by repointing the anchor at the live row it
found, one more quorum Put.  Only gray-failure moved.  Its first such
walk is node 3's for base key ``k2`` at 504.97 ms (five hops, to
``g3``); the second is node 0's for ``k4`` at 689.11 ms (three hops).
The workload now ends at 716.97 ms instead of 712.29, after node 3's
scheduled restore at 712.84 ms, which is dealt again and is the first
entry to differ.  ``stop()``'s heal (four ``restore_node_speed`` calls
and the arrival scale) moved to 716.97 ms.  Every other run is
identical.

Re-recorded when a view-key move lost its third view round (the old
row is made stale first, the new row is written already live, and
readers no longer wait out an Init mark).  Every fault dealt before
each run's final heal is unchanged; what moved is when the workload
ends.  Partition-storm ends at 1391.53 ms instead of 1945.68 (its
readers no longer spin on marked rows across partitions), so the first
entry to differ is ``stop()`` healing partition (2, 3) at 1391.53 ms,
which the storm used to heal itself at 1407.65 ms, and the storm's
eleven later partitions, and their heals, are no longer dealt.  Stacked ends at 2192.63 ms
instead of 2127.13, so its first entry to differ is a newly dealt
``fail_node(1)`` at 2132.55 ms, before the final heal.  In the other
stacks only ``stop()``'s final heal moved, and it is the first entry to
differ: gray-failure 716.97 to 714.03 ms, clock-skew 524.73 to 520.96,
crash-loop 624.93 to 621.29, crash-storm 651.97 to 649.24,
burst-arrivals 384.97 to 388.67.  E2 and E6 crash on a propagation
count, so each crash moved by at most 0.15 ms; the first entry to
differ is E2's first crash (scrubber off), 233.5809 to 233.5613 ms.
The shrunk reproducer and the fuzz schedules are identical, and every
run loses as many propagations as before.

Re-recorded when a base Put whose coordinator holds the chain's live
row at the chain's current turn began to skip Algorithm 1's
every-replica Get.  Every fault dealt before each E4 run's final heal
is unchanged, except where a run now ends before a fault it used to
deal; what moved is when the workload ends.  Partition-storm ends at
1355.30 ms instead of 1391.53, so its first entry to differ is
``stop()``'s heal (four ``restore_node_speed`` calls and the arrival
scale) at 1355.30 ms, and the storm's partition (2, 3) at 1374.03 ms
and its heal are no longer dealt.  Crash-loop ends at 585.47 ms,
before its crash of node 0 at 588.75, so that crash and its recovery
are no longer dealt.  Stacked ends at 2133.36 ms, before its partition
(1, 2) at 2135.95, which with every fault after it is no longer dealt;
``stop()`` recovers node 1 there instead of its revival at 2166.44.
In the other stacks only ``stop()``'s final heal moved, and it is the
first entry to differ: gray-failure 714.03 to 697.06 ms (now before
node 3's scheduled restore at 712.84, which ``stop()`` deals instead),
clock-skew 520.96 to 517.58, crash-storm 649.24 to 644.69,
burst-arrivals 388.67 to 374.99.  E2 and E6 crash on a propagation
count, so their crashes moved, E2's by at most 1.87 ms and E6's by at
most 0.10 ms; the first entry to differ is each run's first crash,
E2's (scrubber off) 233.5613 to 233.0880 ms.  Fuzz seed 1's first lost propagation crashes node 3 at
204.529 ms instead of 204.479: that propagation's Put peeked at its
chain's turn, found it moved on and read anyway, one lock-service
round trip (0.05 ms) later.  The shrunk reproducer and fuzz seed 11
are identical, and every run loses as many propagations as before.

Re-recorded when a session barrier began to wait on the completions of
the session's own records instead of its coordinator outbox's
low-watermark, which also covered every other client's earlier record
on that node.  Only partition-storm moved: its session reads no longer
wait behind records stalled across a partition, so the workload ends
at 1160.74 ms instead of 1355.30.  The first entry to differ is
``stop()`` healing partition (0, 2) at 1160.74 ms, which the storm used
to heal itself at 1181.40 ms; the storm's four later partitions and
their heals are no longer dealt, and ``stop()``'s heal (four
``restore_node_speed`` calls and the arrival scale) moved from 1355.30
to 1160.74 ms.  Every other run is identical, and every run loses as
many propagations as before.

Re-recorded when a chain's first job stopped walking (its turn is 1,
so it can only find the virtual NULL anchor) and a multi-column Put's
line-12 cells began to ride its line-4 Put.  Every fault dealt before
each E4 run's final heal is unchanged; what moved is when the workload
ends, and with it which scheduled faults are still dealt.  The first
entry to differ in each stack:

- partition-storm: the storm heals partition (0, 2) itself at
  1181.40 ms, where ``stop()`` healed it at 1160.74; it deals one more
  partition, (2, 3) at 1199.81, and ``stop()``'s heal moved to
  1210.79 ms.
- gray-failure: ``stop()``'s heal (four ``restore_node_speed`` calls and
  the arrival scale), 697.06 to 695.74 ms.
- clock-skew: the workload ends at 512.29 ms, before the re-skew at
  517.01, which is no longer dealt; ``stop()`` zeroes the skews there.
- crash-loop: the workload ends at 624.77 ms instead of 585.47, so the
  crash of node 0 at 588.75 ms and its recovery are dealt again.
- crash-storm: ``stop()``'s heal, 644.69 to 645.15 ms.
- burst-arrivals: the burst ends at 362.87 ms instead of 372.48, and
  ``stop()``'s heal moved there from 374.99.
- stacked: the partition (1, 2) at 2135.95 ms is dealt again, and the
  workload ends at 2549.86 ms instead of 2133.36.

E2 and E6 crash on a propagation count, so their crashes moved, E2's
by at most 0.39 ms and E6's by at most 0.044 ms; the first entry to
differ is each run's first crash, E2's (scrubber off) 233.0880 to
232.8771 ms.  The shrunk reproducer and both fuzz schedules are
identical, and every run loses as many propagations as before.

Re-recorded when a re-drive (scrub repair, a folded record, a new
view's load) became one serialized job that writes the whole row,
where it wrote the view key and then each materialized column in a job
of its own.  Only runs that re-drive a row moved: E2 with the scrubber
on and E6's three quick cells.  They crash on a propagation count, so
their crashes and recoveries moved by at most 0.068 ms; each deals the
same faults in the same order and loses as many propagations as
before.  The re-record printed::

    fault-timeline.json: first difference at /ext_repair/on[2]
      committed: ["274.1410152005914", "fail_node", "((3,), [])"]
      recorded:  ["274.0980382814856", "fail_node", "((3,), [])"]

E6's first entries to differ are each cell's first crash (node 2):
290.9618 to 290.9384 ms in cell 0, 290.9377 to 290.9454 ms in cells 1
and 2.  E4, the shrunk reproducer, both fuzz schedules and E2 with the
scrubber off are identical.

Re-recorded when a base Put whose chain is pristine began to skip
Algorithm 1's every-replica Get, its sequencer peek travelling during
the coordinator's charge.  Every fault dealt before each E4 run's final
heal is unchanged; the workloads end sooner, so three runs no longer
deal their last scheduled faults.  The re-record printed::

    fault-timeline.json: first difference at /ext_adversary/partition-storm[32]
      committed: ["805.8428036552148", "partition", "((1, 2), [])"]
      recorded:  ["799.5740710416399", "restore_node_speed", "((0,), [])"]

Partition-storm ends at 799.57 ms instead of 1210.79, before its
partition (1, 2) at 805.84, which with the storm's later partitions is
no longer dealt.  Crash-loop ends at 575.82 ms instead of 624.77,
before its crash of node 0 at 588.75.  Stacked ends at 1616.87 ms
instead of 2549.86, before its partition (1, 2) at 1622.61.  In the
other stacks only ``stop()``'s final heal moved: gray-failure 695.74 to
695.09 ms, clock-skew 512.29 to 508.14, crash-storm 645.15 to 643.52,
burst-arrivals 362.87 to 354.74.  Every other run crashes on a
propagation count, so its crashes moved: the shrunk reproducer's by
0.508 ms (its Put skips its read), fuzz seed 1's first by 0.050 ms (a
Put whose peek found its chain moved on no longer waits out the
lock-service round trip after its charge), fuzz seed 11's by 0.508 ms,
E2's and E6's by at most 0.17 ms.  Every run deals the same faults
before its final heal and loses as many propagations as before.

Re-record (only for a change that is *meant* to move the faults)::

    PYTHONPATH=src python tests/scenarios/test_fault_timeline.py
"""

import contextlib
import json
import sys
from pathlib import Path

import pytest

from repro.cluster import Cluster
from repro.experiments import ext_adversary, ext_repair, ext_staleness
from repro.experiments.calibration import ExperimentParams
from repro.scenarios import (
    Scenario,
    generate_schedule,
    load_schedule,
    replay_schedule,
)

pytestmark = pytest.mark.scenario

FIXTURE = Path(__file__).parent / "fixtures" / "fault-timeline.json"
LOST_PROPAGATION = (Path(__file__).parent / "fixtures"
                    / "shrunk-lost-propagation.json")

FAULT_CALLS = ("fail_node", "recover_node", "partition", "heal_partition",
               "slow_node", "restore_node_speed", "set_clock_skew")
# Generated schedules whose faults include crash, partition, slow and lose.
FUZZ_SEEDS = (1, 11)


@contextlib.contextmanager
def recording():
    """Log the fault calls of every cluster built inside the block.

    Yields a list that receives one ``(cluster, log)`` pair per cluster,
    in construction order.
    """
    runs = []
    original_init = Cluster.__init__
    original_scale = Scenario.__dict__.get("arrival_scale")

    def init(cluster, *args, **kwargs):
        original_init(cluster, *args, **kwargs)
        log = []
        cluster._fault_log = log
        runs.append((cluster, log))
        for name in FAULT_CALLS:
            call = getattr(cluster, name)

            def logged(*call_args, _call=call, _name=name, **call_kwargs):
                log.append([repr(cluster.env.now), _name,
                            repr((call_args, sorted(call_kwargs.items())))])
                return _call(*call_args, **call_kwargs)

            setattr(cluster, name, logged)

    def get_scale(scenario):
        return scenario._logged_scale

    def set_scale(scenario, value):
        scenario._logged_scale = value
        if scenario.cluster is not None:
            scenario.cluster._fault_log.append(
                [repr(scenario.cluster.env.now), "arrival_scale",
                 repr(value)])

    Cluster.__init__ = init
    Scenario.arrival_scale = property(get_scale, set_scale)
    try:
        yield runs
    finally:
        Cluster.__init__ = original_init
        if original_scale is None:
            del Scenario.arrival_scale
        else:
            Scenario.arrival_scale = original_scale


def _collect(runs, prefix, names=None):
    out = {}
    for index, (cluster, log) in enumerate(runs):
        name = names[index] if names is not None else str(index)
        lost = cluster.view_manager.lost_propagations
        out[f"{prefix}/{name}"] = log + [["end", "lost_propagations",
                                          repr(lost)]]
    return out


def record() -> dict:
    """Run every covered injector; returns ``{run name: fault log}``."""
    timeline = {}
    with recording() as runs:
        ext_adversary.run(ExperimentParams())
    timeline.update(_collect(runs, "ext_adversary",
                             list(ext_adversary.ADVERSARY_STACKS)))
    with recording() as runs:
        schedule, _expect = load_schedule(LOST_PROPAGATION)
        replay_schedule(schedule, scrub=False)
        replay_schedule(schedule, scrub=True)
    timeline.update(_collect(runs, "shrunk-lost-propagation",
                             ["no-scrub", "scrub"]))
    for seed in FUZZ_SEEDS:
        with recording() as runs:
            replay_schedule(generate_schedule(seed))
        timeline.update(_collect(runs, f"fuzz-seed{seed}"))
    quick = ExperimentParams().quick()
    with recording() as runs:
        ext_repair.run(quick)
    timeline.update(_collect(runs, "ext_repair", ["off", "on"]))
    with recording() as runs:
        ext_staleness.run(quick)
    timeline.update(_collect(runs, "ext_staleness"))
    return timeline


def test_every_injector_deals_and_heals_the_recorded_faults():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = record()
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], name


def test_the_recording_covers_every_fault_kind():
    calls = {entry[1] for log in json.loads(
        FIXTURE.read_text(encoding="utf-8")).values() for entry in log}
    assert set(FAULT_CALLS) | {"arrival_scale"} <= calls


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from tests.fixture_diff import print_first_difference

    recording = record()
    print_first_difference(FIXTURE, recording)
    FIXTURE.write_text(json.dumps(recording, indent=1) + "\n",
                       encoding="utf-8")
    print(f"wrote {FIXTURE}")
