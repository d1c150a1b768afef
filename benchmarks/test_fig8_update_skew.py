"""Figure 8: write throughput vs update key-range width."""

from repro.experiments import fig8_update_skew

from benchmarks.conftest import run_figure


def test_fig8_update_skew(params, capsys):
    result = run_figure(lambda: fig8_update_skew.run(params), capsys=capsys)
    widths = result.column("range_width")
    throughput = result.column("throughput")
    hops = result.column("avg_chain_hops")

    # A frozen cluster reads 0 req/s; no width may.
    assert all(value > 0 for value in throughput), throughput
    # From 1 000 keys down to one, concentration never helps.
    narrowing = [value for width, value
                 in sorted(zip(widths, throughput), reverse=True)
                 if width <= 1000]
    for wider, narrower in zip(narrowing, narrowing[1:]):
        assert narrower <= 1.05 * wider, (
            f"throughput rises as the range narrows: {narrowing}")

    widest = throughput[widths.index(max(widths))]
    narrowest = throughput[widths.index(min(widths))]
    # Paper: throughput decreases significantly as the range narrows.
    assert narrowest < 0.35 * widest, (
        f"no skew collapse: width=1 at {narrowest:.0f} vs "
        f"width={max(widths)} at {widest:.0f}")
    # Mechanism check: stale-row chains grow as updates concentrate.
    assert hops[widths.index(min(widths))] > hops[widths.index(max(widths))]
