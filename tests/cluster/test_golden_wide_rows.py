"""The simulation did not move, on the paths the first recording skips.

``test_golden_timeline.py`` reads at R = 2 and spreads twelve base rows
over five view keys, so its view rows stay narrow.  This recording pins
the other half of the read path: 64 base rows re-keyed among three view
keys until every view row carries tens of stale entries beside its live
ones, read by R = 1 view Gets and by bounded ``get_view_fresh`` reads
(whose view Get is raised to the maintainer's majority and which may
escalate to base-table Gets), beside R = 1 base Gets and W = 1 Puts,
with odd clients under a session so barriers run.  Every op must
complete at the same ``repr``-exact instant, return the same results
(rows and staleness certificates) and leave byte-identical base and
view tables.

Last re-recorded when a base Put whose chain is pristine (turn 0, by a
sequencer peek that now travels during the coordinator's charge) began
to skip Algorithm 1's every-replica Get, which was meant to move the
simulation.  The first op to differ is the first to complete: client
2's first (a W = 1 Put), now at 0.2341 ms; client 3's first (an R = 1
Get), the first to complete before, finished at 0.4949 ms.  The last
op completes at 205.03 ms instead of 215.30.  At the 2.5 ms bound 5
bounded reads of 100 escalate (8 before).

Before that it was re-recorded when a chain's first job stopped walking
(its turn is 1, so it can only find the virtual NULL anchor) and a
multi-column Put's line-12 cells began to ride its line-4 Put, which
was meant to move the simulation.  The first op to differ is the sixth
to complete:
client 2's second (an R = 1 Get), now at 1.1781 ms instead of 1.1606.
The last op completes at 215.30 ms instead of 253.81.  Views lag less
again: at the old 4 ms bound no bounded read escalated (12 of 100 did
before), so the bound went to 2.5 ms, where 8 escalate.

Before that it was re-recorded when a base Put whose coordinator holds
the chain's live row at the chain's current turn began to skip
Algorithm 1's every-replica Get, which was meant to move the
simulation.  The first
op to differ is the 43rd to complete: client 0's twelfth (a bounded
``get_view_fresh``), now at 13.6670 ms instead of 13.6193.  The last op
completes at 253.81 ms instead of 260.99.

Before that it was re-recorded when a view-key move lost its third
view round: the old row is made stale first and the new row is written
already live, so the Init mark, its unmark Put and the readers' spin
on it are gone, which was meant to move the simulation.  The first op
to differ is the tenth to complete: client 1's fourth (a W = 1 Put),
now at 2.4056 ms instead of 2.4511.  The last op completes at 260.99 ms
instead of 291.54.  Views now lag less: at the old 5 ms bound no
bounded read escalated (5 of 100 did before), so the bound went to
4 ms, where 7 escalate.

Before that it was re-recorded when a view entry shrank from four
cells (``B``, ``Next``, ``Init``, payload) to two (``Next``, payload;
the Init mark became a phase of the self-pointer's timestamp), which
was meant to move the simulation: every view-row write and whole-row
read is charged for fewer cells, so the wide rows here read about half
as wide.  The first op to differ is the tenth to complete: client 1's
fourth (a W = 1 Put), now at 2.4511 ms instead of 2.4535.  The last op
completes at 291.54 ms instead of 343.73.

Before that it was re-recorded when a partial read began to rank its
replicas by when each could start serving it, which was meant to move
the simulation.  The first read routed elsewhere is node 0's chain-walk
Get of the view's NULL anchor (R = 2) at 0.9608 ms: its own CPU was
booked more than a round trip ahead, so it asked nodes 2 and 3 where
the fixed order asked 0 and 2.  The first op to differ is the fifth to complete: client 3's
second (a W = 1 Put), now at 1.1034 ms instead of 1.0480.  The last op
completes at 343.73 ms instead of 356.29.

Re-record (only for a change that is *meant* to move the simulation)::

    PYTHONPATH=src python tests/cluster/test_golden_wide_rows.py
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from repro.cluster import Cluster, ClusterConfig
from repro.views import ViewDefinition, state_digest

FIXTURE = Path(__file__).parent / "fixtures" / "timeline-wide-rows.json"

SEED = 29
CLIENTS = 4
OPS_PER_CLIENT = 150
KEYS = 64
VIEW_KEYS = 3
KINDS = ("put", "get_view", "put", "get", "put", "get_view_fresh")
BOUND_MS = 2.5  # low enough that some bounded reads escalate


def _row(result):
    return (result.base_key, sorted(result.values.items()))


def run_timeline(cluster=None) -> dict:
    """Four closed-loop clients x 150 ops on a 4-node cluster with one
    view; returns the recording (and leaves ``cluster`` drained)."""
    cluster = cluster or Cluster(ClusterConfig(seed=SEED))
    cluster.create_table("T")
    cluster.create_view(ViewDefinition("V", "T", "sec", ("payload",)))
    env = cluster.env
    timeline = []
    results = hashlib.sha256()

    def client(index, handle):
        rng = random.Random(SEED * 1000 + index)
        if index % 2:
            handle.begin_session()
        for i in range(OPS_PER_CLIENT):
            kind = KINDS[(i + index) % len(KINDS)]
            key = rng.randrange(KEYS)
            view_key = f"s{rng.randrange(VIEW_KEYS)}"
            if kind == "put":
                result = yield from handle.put(
                    "T", key, {"sec": view_key, "payload": f"p{index}.{i}"},
                    w=1)
            elif kind == "get":
                result = yield from handle.get("T", key, ("payload",), r=1)
            elif kind == "get_view":
                rows = yield from handle.get_view(
                    "V", view_key, ("payload", "B"), r=1)
                result = [_row(row) for row in rows]
            else:
                fresh = yield from handle.get_view_fresh(
                    "V", view_key, ("payload",), r=1,
                    max_staleness_ms=BOUND_MS)
                result = ([_row(row) for row in fresh], fresh.certificate,
                          fresh.escalated, fresh.compensated_keys)
            results.update(repr((index, i, result)).encode("utf-8"))
            timeline.append([index, i, kind, repr(env.now)])

    for index in range(CLIENTS):
        env.process(client(index, cluster.client()))
    cluster.run_until_idle()
    return {
        "seed": SEED,
        "timeline": timeline,
        "results_digest": results.hexdigest(),
        "base_digest": state_digest(cluster, "T"),
        "view_digest": state_digest(cluster, "V"),
    }


def test_wide_row_timeline_matches_the_recording_exactly():
    golden = json.loads(FIXTURE.read_text())
    cluster = Cluster(ClusterConfig(seed=SEED))
    actual = run_timeline(cluster)
    assert len(actual["timeline"]) == CLIENTS * OPS_PER_CLIENT
    for got, want in zip(actual["timeline"], golden["timeline"]):
        assert got == want
    assert actual == golden
    # What the recording is for: tens of stale entries in every view row,
    # and bounded reads both served from the view and escalated.
    rows = cluster.converged_rows("V")
    for view_key in (f"s{n}" for n in range(VIEW_KEYS)):
        nexts = [cell.value for (_base, column), cell in rows[view_key].items()
                 if column == "Next"]
        stale = sum(1 for value in nexts if value != view_key)
        assert stale >= 20, (view_key, stale, len(nexts))
    stats = cluster.view_manager.freshness_stats()
    assert stats["slo"]["bound_hits"] > 0 and stats["slo"]["escalations"] > 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from tests.fixture_diff import print_first_difference

    recording = run_timeline()
    print_first_difference(FIXTURE, recording)
    ops = ",\n".join("  " + json.dumps(op) for op in recording.pop("timeline"))
    head = json.dumps(recording, indent=1)[:-2]  # reopen the object
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(f'{head},\n "timeline": [\n{ops}\n ]\n}}\n')
    print(f"recorded {FIXTURE}")
