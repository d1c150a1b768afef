"""Figure 7: Put/Get pair latency under session guarantees."""

from repro.experiments import fig7_session_guarantees

from benchmarks.conftest import run_figure


def test_fig7_session_guarantees(params, capsys):
    result = run_figure(lambda: fig7_session_guarantees.run(params),
                        capsys=capsys)
    gaps = list(params.session_gaps)
    si = result.series("scenario", "SI", "pair_latency_ms")
    mv = result.series("scenario", "MV", "pair_latency_ms")

    # SI is flat: index maintenance is synchronous, no blocking ever.
    assert max(si) - min(si) < 0.25 * min(si), "SI curve should be flat"

    # MV falls as the gap grows ...
    assert mv[0] > 1.5 * mv[-1], "MV blocking cost not visible at small gaps"
    for earlier, later in zip(mv, mv[1:]):
        assert later <= earlier * 1.10, "MV curve should be non-increasing"

    # ... and levels off by the second-to-last gap (paper: ~640 ms).
    tail_drop = mv[-2] - mv[-1]
    assert tail_drop < 0.1 * mv[0], "MV curve did not level off"
