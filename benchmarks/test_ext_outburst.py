"""Extension E3: outbox load leveling under a 10x write burst."""

from repro.experiments import ext_outburst

from benchmarks.conftest import run_figure


def test_ext_outburst_levels_the_burst(params, capsys):
    result = run_figure(lambda: ext_outburst.run(params), capsys=capsys)

    def depths(phase):
        return result.series("phase", phase, "queue_depth")

    # The steady phase keeps the logs near-empty ...
    assert max(depths("steady")) <= 1
    # ... the burst fills them exactly to the per-node cap, where
    # backpressure holds the producers ...
    assert max(depths("burst")) == params.outburst_capacity == 32
    # ... and the backlog drains to nothing, leaving no divergence.
    assert depths("drain")[-1] == 0
    assert "residual divergence 0 rows" in result.notes
