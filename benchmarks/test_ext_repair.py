"""Extension: divergence under coordinator crashes, scrubber on/off."""

from repro.experiments import ext_repair

from benchmarks.conftest import run_figure


def test_ext_repair_scrubber_bounds_divergence(params, capsys):
    result = run_figure(lambda: ext_repair.run(params), capsys=capsys)

    def curve(label):
        return [row[2] for row in result.rows if row[0] == label]

    off = curve("off")
    on = curve("on")
    # Crashes happened and, unscrubbed, the divergence never heals: the
    # run ends with stale view rows that nothing will ever revisit.
    assert max(off) >= 1
    assert off[-1] >= 1
    # The scrubber repairs every divergence within the run ...
    assert on[-1] == 0
    # ... and never leaves the view worse than the unscrubbed run.
    assert max(on) <= max(off)
