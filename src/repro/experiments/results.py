"""Result containers and table formatting for experiment outputs.

Every experiment returns a :class:`FigureResult` whose ``format_table``
mirrors the corresponding figure of the paper: same series, same x-axis,
values from the simulation.  The figure tests print these tables so a
run of ``pytest benchmarks --ignore=benchmarks/mvbench`` regenerates
the paper's evaluation section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

__all__ = ["FigureResult"]


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
        """Render an aligned ASCII table with header and title."""
        def fmt(value) -> str:
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value)

        cells = [list(self.columns)] + [
            [fmt(value) for value in row] for row in self.rows]
        widths = [max(len(row[i]) for row in cells)
                  for i in range(len(self.columns))]
        lines = [f"{self.figure}: {self.title}"]
        header = "  ".join(c.ljust(w) for c, w in zip(cells[0], widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells[1:]:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)
