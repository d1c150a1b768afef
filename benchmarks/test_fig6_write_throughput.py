"""Figure 6: aggregate write throughput vs concurrent clients."""

from repro.experiments import fig6_write_throughput

from benchmarks.conftest import run_figure


def test_fig6_write_throughput(params, capsys):
    result = run_figure(lambda: fig6_write_throughput.run(params),
                        capsys=capsys)
    bt = result.series("scenario", "BT", "throughput")
    si = result.series("scenario", "SI", "throughput")
    mv = result.series("scenario", "MV", "throughput")

    # Paper: BT > SI > MV at every client count.
    for i, clients in enumerate(params.client_counts):
        assert bt[i] > si[i] * 0.95, f"BT < SI at {clients} clients"
        assert si[i] > mv[i], f"SI < MV at {clients} clients"

    # MV saturates early: view maintenance consumes cluster capacity.
    assert mv[-1] < 0.35 * bt[-1], "MV maintenance overhead not visible"
    # SI stays within a modest factor of BT (local, synchronous updates).
    assert si[-1] > 0.6 * bt[-1]
