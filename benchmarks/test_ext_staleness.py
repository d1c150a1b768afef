"""Extension E6: bounded-staleness reads under crash-lost propagation."""

from repro.experiments import ext_staleness

from benchmarks.conftest import run_figure


def test_ext_staleness_honors_every_bound(params, capsys, monkeypatch):
    cells = {}
    measure = ext_staleness.run_staleness_point

    def recorded(cell_params, bound):
        cells[bound] = measure(cell_params, bound)
        return cells[bound]

    monkeypatch.setattr(ext_staleness, "run_staleness_point", recorded)
    run_figure(lambda: ext_staleness.run(params), capsys=capsys)

    assert set(cells) == set(params.staleness_bounds)
    for cell in cells.values():
        # Every bounded read honored its bound against the oracle ...
        assert cell["audit_violations"] == 0, cell["audit_failures"]
        # ... while crashes really lost propagations and wounded chains.
        assert cell["wounds_opened"] > 0
    # Unbounded reads never escalate; they only carry a certificate.
    assert cells[None]["escalations"] == 0
    # Every cell replays one write/crash/scrub timeline, so a tighter
    # bound faces the same staleness and can only escalate more.
    loose_to_tight = sorted((b for b in cells if b is not None),
                            reverse=True)
    rates = [cells[bound]["escalation_rate"] for bound in loose_to_tight]
    assert rates == sorted(rates)
    assert rates[-1] > 0
