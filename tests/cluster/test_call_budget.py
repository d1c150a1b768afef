"""Python calls per client op in ``src/repro``: a count that repeats,
not a wall clock — the host-cost analogue of ``test_event_budget.py``.

A replica message's host path, from ``Network.rpc`` to the ack, is one
pass per layer: a delay draw is one call bound to the network's stream
(``LatencyModel.bind``), a request finds its handler in one table
lookup, a write's cells are LWW-applied in one ``Row.apply`` and a
table with no index asks nothing about indexes, a partial read ranks
its replicas in one loop and one sort, and a settled round costs its
deadline queue no call.  Under it, each hop is one frame: a heap pop
and a resume make no type test, a CPU charge is priced in the one frame
that books it (``Resource.book``), a handler is a ``(cost, finish)``
pair of plain functions with no closure per request, a drop check is
made inline, and every timer — an RPC hop's and a coordinator charge's
— is pushed onto the heap by the frame that arms it.  Above it, a
client hop draws its own delay, a handle finds its coordinator by one
list index, and a view Get with no session runs no barrier and decodes
only the row's live entries, in one pass.  Each count is the
``sys.setprofile`` ``"call"`` events in a ``repro`` module (generator
resumptions included) from the op's start until the cluster is idle
again, through a client handle whose coordinator holds no replica of
the key, on a cluster that already holds the row.  Each bound is the
count measured on CPython 3.11 when the one-pass view Get went in, plus
the slack the earlier bounds had, about 3.5 % (3.12 inlines
comprehensions and counts fewer); the numbers before it are in each
docstring.
"""

import os
import sys

import repro
from repro.cluster import Cluster, ClusterConfig
from repro.views import ViewDefinition

PACKAGE = os.path.dirname(repro.__file__) + os.sep


def calls_to_idle(cluster, operation) -> int:
    """``repro`` calls made while the generator ``operation`` runs in a
    process and the cluster then drains to idle."""
    count = 0

    def profile(frame, event, _arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            count += 1

    sys.setprofile(profile)
    try:
        cluster.env.process(operation)
        cluster.run_until_idle()
    finally:
        sys.setprofile(None)
    return count


def client_of_an_outsider(cluster, table, key):
    """A client handle whose coordinator holds no replica of ``key``."""
    replicas = cluster.replicas_for(table, key)
    (node,) = [node for node in cluster.nodes if node not in replicas]
    return cluster.client(node.node_id)


def base_cluster():
    cluster = Cluster(ClusterConfig(seed=5))
    cluster.create_table("T")
    cluster.sync_client().put("T", "k", {"a": "v0"}, w=3)
    cluster.run_until_idle()
    return cluster


def test_an_r1_get_stays_within_its_call_budget():
    """Two client hops, a coordinator charge and one RPC: 75 calls (88
    before the one-pass view Get, 99 before one frame per hop, 109
    before the one-pass path)."""
    cluster = base_cluster()
    handle = client_of_an_outsider(cluster, "T", "k")
    assert calls_to_idle(cluster, handle.get("T", "k", ("a",), r=1)) \
        <= 78


def test_a_w1_put_at_n3_stays_within_its_call_budget():
    """Three RPCs, two of whose acks nobody waits for: 115 calls (133
    before the one-pass view Get, 158 before one frame per hop, 184
    before the one-pass path)."""
    cluster = base_cluster()
    handle = client_of_an_outsider(cluster, "T", "k")
    assert calls_to_idle(cluster, handle.put("T", "k", {"a": "v1"}, w=1)) \
        <= 119


def test_a_pristine_view_put_stays_within_its_call_budget():
    """A row's first Put into a viewed table: the base Put and its
    record's first chain turn, 9 RPCs: 450 calls (491 before the
    one-pass view Get, 563 before one frame per hop, 660 before the
    one-pass path)."""
    cluster = base_cluster()
    cluster.create_view(ViewDefinition("V", "T", "sec", ("payload",)))
    handle = client_of_an_outsider(cluster, "T", "fresh")
    assert calls_to_idle(cluster, handle.put(
        "T", "fresh", {"sec": "s1", "payload": "p1"})) <= 466


def test_a_session_less_view_get_stays_within_its_call_budget():
    """mvbench ``mv_read``'s op: an R = 1 view Get with no session of a
    row holding one live entry, two client hops, a coordinator charge
    and one RPC: 81 calls (99 before the one-pass view Get)."""
    cluster = base_cluster()
    cluster.create_view(ViewDefinition("V", "T", "sec", ("payload",)))
    cluster.sync_client().put("T", "row", {"sec": "s1", "payload": "p1"},
                              w=3)
    cluster.run_until_idle()
    handle = client_of_an_outsider(cluster, "V", "s1")
    assert calls_to_idle(cluster, handle.get_view(
        "V", "s1", ("payload",), r=1)) <= 84
