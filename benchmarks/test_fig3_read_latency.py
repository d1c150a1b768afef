"""Figure 3: read latency by access path (BT / SI / MV)."""

from repro.experiments import fig3_read_latency

from benchmarks.conftest import run_figure


def test_fig3_read_latency(params, capsys):
    result = run_figure(lambda: fig3_read_latency.run(params), capsys=capsys)
    (bt,) = result.series("scenario", "BT", "mean_ms")
    (si,) = result.series("scenario", "SI", "mean_ms")
    (mv,) = result.series("scenario", "MV", "mean_ms")
    # Paper: BT and MV similar; SI ~3.5x slower.
    assert si > 2.5 * bt, f"SI ({si:.3f}) should be >2.5x BT ({bt:.3f})"
    assert mv < 1.5 * bt, f"MV ({mv:.3f}) should be close to BT ({bt:.3f})"
    assert si > 2.0 * mv
