"""Result containers and table formatting for experiment outputs.

Every experiment returns a :class:`FigureResult` whose ``format_table``
mirrors the corresponding figure of the paper: same series, same x-axis,
values from the simulation, as a markdown table.  EXPERIMENTS.md holds
each figure's table between ``<!-- measured: <figure> -->`` and
``<!-- /measured -->``; :func:`measured_block` reads one and
:func:`replace_measured_block` rewrites it, so the program is the only
writer of a measured number there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

__all__ = ["FigureResult", "measured_block", "replace_measured_block"]

MEASURED_END = "<!-- /measured -->"


@dataclass
class FigureResult:
    """A table of results reproducing one figure of the paper."""

    figure: str
    title: str
    columns: Tuple[str, ...]
    rows: List[Tuple] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *values) -> None:
        """Append one row (must match ``columns`` in arity)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(tuple(values))

    def column(self, name: str) -> List:
        """All values of one column, in row order."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def series(self, label_column: str, label,
               value_column: str) -> List:
        """Values of ``value_column`` for rows whose label matches."""
        label_index = self.columns.index(label_column)
        value_index = self.columns.index(value_column)
        return [row[value_index] for row in self.rows
                if row[label_index] == label]

    def format_table(self) -> str:
        """Render a markdown table under a title line, notes below."""
        def fmt(value) -> str:
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value)

        lines = [f"{self.figure}: {self.title}", "",
                 "| " + " | ".join(self.columns) + " |",
                 "|" + "---|" * len(self.columns)]
        lines += ["| " + " | ".join(map(fmt, row)) + " |"
                  for row in self.rows]
        if self.notes:
            lines += ["", f"note: {self.notes}"]
        return "\n".join(lines)


def _block_span(text: str, figure: str) -> Tuple[int, int]:
    """Where ``figure``'s one measured block sits in ``text``."""
    opening = f"<!-- measured: {figure} -->\n"
    begin = text.find(opening)
    end = text.find(MEASURED_END, begin)
    if text.count(opening) != 1 or end < 0:
        raise ValueError(f"no single '{opening.strip()}' ... "
                         f"'{MEASURED_END}' block")
    return begin + len(opening), end


def measured_block(text: str, figure: str) -> str:
    """The table committed for ``figure`` in ``text``."""
    start, end = _block_span(text, figure)
    return text[start:end]


def replace_measured_block(text: str, result: FigureResult) -> str:
    """``text`` with ``result``'s block holding its table."""
    start, end = _block_span(text, result.figure)
    return text[:start] + result.format_table() + "\n" + text[end:]
