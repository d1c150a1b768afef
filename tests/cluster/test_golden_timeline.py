"""The simulation did not move: one recorded timeline, asserted exactly.

``fixtures/timeline-golden.json`` pins *when* everything happens in one
small closed-loop run: the test replays the recorded workload and
requires every op to complete at the same ``repr``-exact instant,
return the same results, and leave byte-identical base and view tables.
A change to how the simulator runs — fewer kernel events per RPC, a
different heap layout, an allocation saved — must leave it green: work
that advances no simulated clock may change how many events the kernel
pops but not when anything completes.  It runs on the default
(jittered) link models, so one reordered RNG draw — a return delay
sampled before instead of after a neighbour's forward delay — shifts
every later timestamp and fails it.

Last re-recorded when a base Put whose chain is pristine (turn 0, by a
sequencer peek that now travels during the coordinator's charge) began
to skip Algorithm 1's every-replica Get, which was meant to move the
simulation: a row's first Put is three quorum rounds, not four.  The
first op to differ is the first to complete: client 0's first (a
view-key Put, W = 2), now at 0.3741 ms; client 3's first Put, the first
to complete before, finished at 0.8436 ms.  The last op completes at
61.67 ms instead of 63.82.

Before that it was re-recorded when a chain's first job stopped walking
(its turn is 1, so it can only find the virtual NULL anchor) and a
multi-column Put's line-12 cells began to ride its line-4 Put, which was
meant to move the simulation: a row's first multi-column Put is four
quorum rounds, not six.  The first op to differ is the fifth to complete:
client 3's second (a Get, R = 2), now at 1.6838 ms instead of 1.5052,
its link delays drawn from a stream client 3's first Put, which no
longer walks, left shifted.  The last op completes at 63.82 ms instead
of 77.41.

Before that it was re-recorded when a base Put whose coordinator holds
the chain's live row at the chain's current turn began to skip Algorithm 1's
every-replica Get (its record skips the walk, the only reader of those
guesses), which was meant to move the simulation: a repeat move by the
same coordinator is three quorum rounds, not four.  The first op to
differ is the 31st to complete: client 0's tenth (a view-key Put,
W = 2), now at 8.6945 ms instead of 9.2263.  The last op completes at
77.41 ms instead of 75.28.

Before that it was re-recorded when a view-key move lost its third
view round: the old row is made stale first and the new row is written
already live, so the Init mark and its unmark Put are gone, which was
meant to move the simulation.  The first op to differ is the ninth to
complete: client 0's third (a view Get, R = 2), now at 2.4124 ms
instead of 2.4037.  The last op completes at 75.28 ms instead of 86.02.

Before that it was re-recorded when a view entry shrank from four cells
(``B``, ``Next``, ``Init``, payload) to two (``Next``, payload; the
Init mark became a phase of the self-pointer's timestamp), which was
meant to move the simulation: every view-row write and whole-row read
is charged for fewer cells.  The first op to differ is the seventh to
complete: client 1's second (a view Get, R = 2), now at 1.8012 ms
instead of 1.8272.  The last op completes at 86.02 ms instead of 87.93.

Before that it was re-recorded when a partial read began to rank its
replicas by when each could start serving it (its own CPU's free-at, or the free-at
a peer stamped on its last reply plus a round trip), which was meant to
move the simulation.  The first read routed elsewhere is node 3's
chain-walk Get of the view's NULL anchor (R = 2) at 0.9734 ms: it asked
nodes 3 and 2, where the fixed turn asked 3 and 0.  The first op to
differ is the fifth to complete: client 3's second (a Get, R = 2), now
at 1.5052 ms instead of 1.5907.  The last op completes at 87.93 ms
instead of 89.73.

Before that it was re-recorded when a view Get stopped charging the
coordinator twice (once around Algorithm 4, once in its wide-row Get), which was
meant to move the simulation.  The first op to differ is the third to
complete: client 2's first (a view Get, R = 2), now at 0.9250 ms
instead of 1.0074.  Client 1's first Get, its link delays now drawn in
a different order, completes at 1.0074 ms instead of 0.8826.  The last
op completes at 89.73 ms instead of 90.51.

Before that it was re-recorded for the loopback: a coordinator serves
its own replica in process, with no link delay drawn for it, so every
later draw shifts.  The first op to complete became client 3's first
(a view-key Put, W = 2), at 0.8436 ms instead of 0.8896.  Client 1's
first Get (R = 2), the first to complete before, waited on its one
remote replica's delays, drawn from the shifted stream: 0.8826 ms
instead of 0.6507.  The last op completed at 90.51 ms instead of 94.26.

Before that it was re-recorded for another change meant to move the
simulation: a quorum Get asks R alive replicas (the coordinator's own
first), not all N, so every Get draws fewer link delays and no longer
returns on the
fastest R of three — the first op to differ is the very first to
complete (client 1's first, an R = 2 Get), at 0.6507 ms instead of
0.6765.  PR 22 re-recorded it for the three-round move by the
coordinator that holds the live row (first difference: the 35th op, at
12.8619 ms instead of 12.8953), PR 20 for the six-to-four-round change
(CopyData rides the chain walk's last Get and the line-4 Put); the
recording before that one dated from the commit before PR 17 and
survived it unchanged.

Re-record (only for a change that is *meant* to move the simulation)::

    PYTHONPATH=src python tests/cluster/test_golden_timeline.py
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from repro.cluster import Cluster, ClusterConfig
from repro.views import ViewDefinition, state_digest

FIXTURE = Path(__file__).parent / "fixtures" / "timeline-golden.json"

SEED = 17
CLIENTS = 4
OPS_PER_CLIENT = 60
KEYS = 12
VIEW_KEYS = 5
KINDS = ("put", "get", "get_view")


def run_timeline() -> dict:
    """Four closed-loop clients x 60 ops on a 4-node cluster with one
    view: view-key Puts, base Gets and view Gets in rotation (odd
    clients under a session, so barriers run too)."""
    cluster = Cluster(ClusterConfig(seed=SEED))
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
            if kind == "put":
                values = {"sec": f"s{rng.randrange(VIEW_KEYS)}",
                          "payload": f"p{index}.{i}"}
                result = yield from handle.put("T", key, values, w=2)
            elif kind == "get":
                result = yield from handle.get("T", key, ("payload",), r=2)
            else:
                rows = yield from handle.get_view(
                    "V", f"s{rng.randrange(VIEW_KEYS)}", ("payload",), r=2)
                result = sorted((row.base_key, sorted(row.values.items()))
                                for row in rows)
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


def test_timeline_matches_the_recording_exactly():
    golden = json.loads(FIXTURE.read_text())
    actual = run_timeline()
    assert len(actual["timeline"]) == CLIENTS * OPS_PER_CLIENT
    # Compare op by op first: the earliest divergence is the useful one.
    for got, want in zip(actual["timeline"], golden["timeline"]):
        assert got == want
    assert actual == golden


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
