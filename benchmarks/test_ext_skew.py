"""Extension E5: eager vs adaptive maintenance across Zipf exponents."""

from repro.experiments import ext_skew

from benchmarks.conftest import run_figure


def test_ext_skew(params, capsys):
    result = run_figure(lambda: ext_skew.run(params), capsys=capsys)
    thetas = result.column("theta")
    speedup = dict(zip(thetas, result.column("speedup")))

    # The claim EXPERIMENTS.md makes: folding pays where skew hurts.
    for theta in thetas:
        if theta >= 1.2:
            assert speedup[theta] >= 2.0, (
                f"adaptive only {speedup[theta]}x eager at theta={theta}")
    # And costs (next to) nothing where little is heavy.
    assert speedup[min(thetas)] >= 0.95, speedup
    # Lazy maintenance is lag, never divergence: both modes, every cell.
    assert result.column("divergent_rows") == [0] * len(thetas)
