"""Shared helpers for the figure tests.

Each test regenerates one table/figure of the paper's evaluation: it
runs the corresponding experiment once at full size, prints the
figure's table, and asserts the qualitative shape the paper reports.
Nothing here is timed; speed is mvbench's business
(``benchmarks/mvbench/README.md``).

Run with (``--durations=0`` for the wall time of each figure)::

    pytest benchmarks --ignore=benchmarks/mvbench
"""

import pytest

from repro.experiments import ExperimentParams


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
    return result
