"""Figure 4: aggregate read throughput vs concurrent clients."""

from repro.experiments import fig4_read_throughput

from benchmarks.conftest import run_figure


def test_fig4_read_throughput(params, capsys):
    result = run_figure(lambda: fig4_read_throughput.run(params),
                        capsys=capsys)
    bt = result.series("scenario", "BT", "throughput")
    si = result.series("scenario", "SI", "throughput")
    mv = result.series("scenario", "MV", "throughput")
    max_clients = params.client_counts[-1]

    # Paper: BT >= MV >> SI at every client count.
    for i, clients in enumerate(params.client_counts):
        assert bt[i] >= mv[i] * 0.95, f"BT < MV at {clients} clients"
        assert mv[i] > 2.0 * si[i], f"MV not >> SI at {clients} clients"

    # Throughput grows with clients, then BT flattens (saturation): the
    # last doubling of clients buys less than a proportional increase.
    assert bt[-1] > bt[0] * 2
    growth = bt[-1] / bt[len(bt) // 2]
    clients_growth = max_clients / params.client_counts[len(bt) // 2]
    assert growth < clients_growth, "BT shows no saturation"
