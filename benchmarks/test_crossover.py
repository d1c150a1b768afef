"""Extension: the SI-vs-MV read/write-mix crossover."""

from repro.experiments import crossover

from benchmarks.conftest import run_figure


def test_crossover_si_vs_mv(params, capsys):
    result = run_figure(lambda: crossover.run(params), capsys=capsys)
    fractions = sorted(set(result.column("write_fraction")))

    def series(label):
        return {row[1]: row[2] for row in result.rows if row[0] == label}

    si = series("SI")
    mv = series("MV")
    # MV wins decisively in the read-heavy regime ...
    assert mv[fractions[0]] > 2.5 * si[fractions[0]]
    # ... SI wins in the pure-write regime ...
    assert si[fractions[-1]] > 2.0 * mv[fractions[-1]]
    # ... so a crossover exists strictly inside the sweep.
    point = crossover.crossover_fraction(result)
    assert point is not None
    assert fractions[0] < point <= fractions[-1]
