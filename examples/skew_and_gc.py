#!/usr/bin/env python3
"""Update skew, stale-row garbage, and the collector (Figure 8 + GC).

The paper's Figure 8 shows write throughput collapsing as updates
concentrate on few rows — every view-key update leaves a stale row, and
GetLiveKey must walk growing pointer chains.  This example reproduces
the effect at demo scale and then shows the stale-row collector (this
repo's extension) pruning the mess away; the only pointer it repoints
is each row's NULL anchor, straight at the live row.

Run:  python examples/skew_and_gc.py
"""

from repro import Cluster, ClusterConfig, ViewDefinition
from repro.views import check_view, collect_stale_rows, compute_stats
from repro.workloads import RangeKeys, run_closed_loop, write_op

VIEW = ViewDefinition("BY_TAG", "ITEM", "tag")


def hot_run(width: int):
    """Hammer the view-key column of `width` base rows for 400 ms."""
    cluster = Cluster(ClusterConfig(seed=33))
    cluster.create_table("ITEM")
    cluster.create_view(VIEW)
    op = write_op("ITEM", RangeKeys(width), "tag", w=1)
    summary = run_closed_loop(cluster, op, clients=6, duration=400.0,
                              warmup=80.0)
    cluster.run_until_idle()
    return cluster, summary


def main() -> None:
    print("== The skew effect (Figure 8 at demo scale) ==")
    for width in (1000, 10, 1):
        cluster, summary = hot_run(width)
        stats = compute_stats(cluster, VIEW)
        metrics = cluster.view_manager.maintainer.metrics
        print(f"  range width {width:5d}: {summary.throughput:7.0f} req/s, "
              f"{stats.stale_rows:4d} stale rows, "
              f"max chain {stats.max_chain_length:3d}, "
              f"avg GetLiveKey hops {metrics.hops_per_propagation():.2f}")

    print("\n== Garbage collection on the worst case ==")
    cluster, _summary = hot_run(1)
    before = compute_stats(cluster, VIEW)
    print(f"  before GC: {before.describe()}")
    process = cluster.env.process(
        collect_stale_rows(cluster, VIEW, cutoff_base_ts=2 ** 62))
    report = cluster.env.run(until=process)
    cluster.run_until_idle()
    after = compute_stats(cluster, VIEW)
    print(f"  GC pass:   pruned {report.rows_pruned} rows, "
          f"repointed {report.rows_compacted} NULL anchors")
    print(f"  after GC:  {after.describe()}")

    violations = check_view(cluster, VIEW)
    print(f"  invariants after GC: {'OK' if not violations else violations}")
    assert violations == []
    assert after.stale_rows < before.stale_rows
    assert after.max_chain_length <= 1
    print("done.")


if __name__ == "__main__":
    main()
