"""Ablations: design-choice experiments from DESIGN.md."""

from repro.experiments import ablations

from benchmarks.conftest import run_figure


def test_ablation_combined_get_then_put(params, capsys):
    result = run_figure(lambda: ablations.combined_get_then_put(params),
                        capsys=capsys)
    (separate,) = result.series("variant", "separate", "mean_ms")
    (combined,) = result.series("variant", "combined", "mean_ms")
    # Combining saves one replica round trip: strictly faster, but the
    # inline view-key read still costs something.
    assert combined < separate
    assert combined > 0.5 * separate


def test_ablation_concurrency_mechanisms(params, capsys):
    result = run_figure(lambda: ablations.concurrency_mechanisms(params),
                        capsys=capsys)
    (locks,) = result.series("mechanism", "locks", "throughput")
    (props,) = result.series("mechanism", "propagators", "throughput")
    # Both mechanisms must sustain hot-range load; neither collapses to
    # zero and they stay within an order of magnitude of each other.
    assert locks > 0 and props > 0
    ratio = max(locks, props) / min(locks, props)
    assert ratio < 10, f"mechanisms diverge too much: {ratio:.1f}x"


def test_ablation_materialized_column_count(params, capsys):
    result = run_figure(lambda: ablations.materialized_column_count(params),
                        capsys=capsys)
    latencies = result.column("write_latency_ms")
    counts = result.column("materialized_columns")
    # Client-visible write latency is insensitive to materialized-column
    # count (the copy happens asynchronously) - the cost shows up in
    # maintenance work, not in the Put path.
    assert max(latencies) < 2.0 * min(latencies), (
        f"write latency should not balloon with columns: "
        f"{list(zip(counts, latencies))}")


def test_ablation_stale_row_gc(params, capsys):
    result = run_figure(lambda: ablations.stale_row_gc(params), capsys=capsys)
    (off_stale,) = result.series("gc", "off", "stale_rows")
    (on_stale,) = result.series("gc", "on", "stale_rows")
    (off_chain,) = result.series("gc", "off", "max_chain")
    (on_chain,) = result.series("gc", "on", "max_chain")
    # GC bounds garbage and chain lengths under hot-range rekeying.
    assert on_stale < 0.2 * off_stale
    assert on_chain < off_chain
    # And does not tank foreground throughput.
    (off_tput,) = result.series("gc", "off", "throughput")
    (on_tput,) = result.series("gc", "on", "throughput")
    assert on_tput > 0.95 * off_tput


def test_ablation_master_vs_decentralized(params, capsys):
    result = run_figure(lambda: ablations.master_vs_decentralized(params),
                        capsys=capsys)
    (dec_lat,) = result.series("design", "decentralized",
                               "write_latency_ms")
    (mas_lat,) = result.series("design", "master-based", "write_latency_ms")
    (dec_tput,) = result.series("design", "decentralized",
                                "write_throughput")
    (mas_tput,) = result.series("design", "master-based",
                                "write_throughput")
    # Master-based maintenance avoids the view-key pre-read and the
    # versioned-view writes: cheaper on both axes (its cost is the
    # availability trade-off, shown in tests/views/test_master.py).
    assert mas_lat < dec_lat
    assert mas_tput > dec_tput


def test_ablation_quorum_settings(params, capsys):
    result = run_figure(lambda: ablations.quorum_settings(params),
                        capsys=capsys)
    reads = dict(zip(zip(result.column("R"), result.column("W")),
                     result.column("read_ms")))
    writes = dict(zip(zip(result.column("R"), result.column("W")),
                      result.column("write_ms")))
    # Larger R slows reads; larger W slows writes; R=1 unaffected by W.
    assert reads[(3, 1)] > reads[(1, 1)]
    assert writes[(1, 3)] > writes[(1, 1)]
    assert abs(reads[(1, 1)] - reads[(1, 3)]) < 0.15
