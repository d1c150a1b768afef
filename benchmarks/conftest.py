"""Shared helpers for the figure tests.

Each test regenerates one table/figure of the paper's evaluation: it
runs the corresponding experiment once at full size, prints the
figure's table, and asserts the qualitative shape the paper reports.
Once those assertions pass, the table must equal the one committed in
EXPERIMENTS.md's measured block for that figure.
Nothing here is timed; speed is mvbench's business
(``benchmarks/mvbench/README.md``).

Run with (``--durations=0`` for the wall time of each figure)::

    pytest benchmarks --ignore=benchmarks/mvbench
"""

from pathlib import Path

import pytest

from repro.experiments import ExperimentParams
from repro.experiments.results import measured_block

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
RERECORD = ("PYTHONPATH=src python -m repro.experiments "
            "--write EXPERIMENTS.md")

# The results the running test made, checked once its own asserts pass.
_measured = []


@pytest.fixture(scope="session")
def params() -> ExperimentParams:
    """The standard scaled-down experiment sizes (see calibration.py)."""
    return ExperimentParams()


def run_figure(run_fn, capsys):
    """Execute one experiment and print its table.

    The table is the deliverable (it mirrors the paper's figure), so it
    must reach the terminal even though pytest captures stdout of
    passing tests — every figure test passes its ``capsys`` fixture
    and the table prints uncaptured.  ``capsys`` is required (not
    defaulted to ``None``) so a new figure test cannot silently print
    into the captured-and-discarded stream.

    An empty table means the experiment produced no rows — that is a
    broken figure regardless of what the test's own assertions check,
    so it fails here for every figure uniformly.
    """
    result = run_fn()
    table = result.format_table()
    assert table and table.strip(), "figure produced an empty table"
    assert len(result.rows) > 0, "figure produced no data rows"
    with capsys.disabled():
        print()
        print(table)
    _measured.append(result)
    return result


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call():
    """After a figure test's shape assertions pass, compare each table
    it ran with EXPERIMENTS.md's block for that figure.  A failed shape
    raises out of the ``yield`` and is reported as it is."""
    _measured.clear()
    outcome = yield
    text = EXPERIMENTS_MD.read_text()
    for result in _measured:
        block = measured_block(text, result.figure)  # ValueError if none
        committed = block.splitlines()
        measured = result.format_table().splitlines()
        if committed == measured:
            continue
        at = next((i for i, pair in enumerate(zip(committed, measured))
                   if pair[0] != pair[1]), min(len(committed), len(measured)))
        line = text[:text.index(block)].count("\n") + 1 + at
        pytest.fail(
            f"{result.figure}: the committed table differs from this run "
            f"at EXPERIMENTS.md line {line}:\n"
            f"  committed: {(committed + [''])[at]!r}\n"
            f"  measured:  {(measured + [''])[at]!r}\n"
            "If the change is meant to move it, re-record with\n"
            f"  {RERECORD}\nand review `git diff EXPERIMENTS.md`.",
            pytrace=False)
    return outcome
