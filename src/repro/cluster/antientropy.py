"""Anti-entropy repair: reconcile replicas of a row or table.

``repair_row`` is the core primitive (compare replicas, push LWW winners
back); ``repair_table`` sweeps every key.  This is the heavyweight
eventual-delivery mechanism that catches whatever hinted handoff and read
repair miss (e.g. hints lost because their holder also failed).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from repro.cluster.coordinator import ResponseCollector
from repro.cluster.messages import ReadRowRequest, WriteRequest
from repro.common.records import merge_rows, stale_cells

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster

__all__ = ["repair_row", "repair_table"]


def repair_row(cluster: "Cluster", table: str, key: Hashable):
    """Reconcile all alive replicas of one row; a simulation process.

    The row's first alive replica coordinates the sweep, as a Cassandra
    repair coordinator does: it reads the full row from every alive
    replica (its own copy in process, the others over the link), merges
    per-cell LWW winners, and writes any cells a replica is missing or
    holds stale back to it, one replica at a time.  Replicas that do not
    answer within the cluster's timeout (one wait for all of them) are
    left for a later sweep.  Returns the number of replicas that needed
    repair.
    """
    replicas = [r for r in cluster.replicas_for(table, key) if not r.is_down]
    if not replicas:
        return 0
    src_id = replicas[0].node_id
    request = ReadRowRequest(table, key)
    rows = ResponseCollector(cluster.env, len(replicas))
    for replica in replicas:
        cluster.network.rpc(src_id, replica, rows, request)
    cluster.quorum_deadlines.watch(rows)
    responses = yield rows.settled
    winners = merge_rows(response.cells for response in responses)
    held = {response.node_id: response.cells for response in responses}
    repaired = 0
    for replica in replicas:
        if replica.node_id not in held:
            continue
        missing = stale_cells(winners, held[replica.node_id])
        if missing:
            repaired += 1
            ack = ResponseCollector(cluster.env, 1)
            cluster.network.rpc(src_id, replica, ack,
                                WriteRequest(table, key, missing))
            cluster.quorum_deadlines.watch(ack)
            yield ack.settled
    return repaired


def repair_table(cluster: "Cluster", table: str):
    """Reconcile every key of ``table``; a simulation process.

    The key universe is the union of keys across alive replicas (a real
    system would exchange Merkle trees; a full sweep is equivalent for
    our in-memory scale).  Returns the number of rows that needed repair.
    """
    repaired_rows = 0
    for key in sorted(cluster.table_keys(table), key=repr):
        if (yield from repair_row(cluster, table, key)):
            repaired_rows += 1
    return repaired_rows
