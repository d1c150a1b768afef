"""Extension E4: the standing invariants under every adversary stack."""

from repro.experiments import ext_adversary

from benchmarks.conftest import run_figure


def test_ext_adversary_every_stack_holds_its_invariants(params, capsys):
    result = run_figure(lambda: ext_adversary.run(params), capsys=capsys)
    rows = {row[0]: dict(zip(result.columns, row)) for row in result.rows}
    assert list(rows) == list(ext_adversary.ADVERSARY_STACKS)
    for name, row in rows.items():
        # Every stack dealt faults, work still completed under them, and
        # the invariant suite held after quiescence.
        assert row["injections"] > 0, name
        assert row["acked_ops"] > 0, name
        assert row["violations"] == 0, name
