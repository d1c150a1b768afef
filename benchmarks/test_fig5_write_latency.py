"""Figure 5: write latency by maintenance burden (BT / SI / MV)."""

from repro.experiments import fig5_write_latency

from benchmarks.conftest import run_figure


def test_fig5_write_latency(params, capsys):
    result = run_figure(lambda: fig5_write_latency.run(params), capsys=capsys)
    (bt,) = result.series("scenario", "BT", "mean_ms")
    (si,) = result.series("scenario", "SI", "mean_ms")
    (mv,) = result.series("scenario", "MV", "mean_ms")
    # Paper: BT ~= SI; MV ~2.5x BT (read-before-write of the view key).
    assert si < 1.3 * bt, f"SI ({si:.3f}) should be close to BT ({bt:.3f})"
    assert 1.8 * bt < mv < 3.5 * bt, (
        f"MV ({mv:.3f}) should be ~2.5x BT ({bt:.3f})")
