"""Plain-text tables for benchmark output.

The benchmark harness prints the same rows/series the paper's figures
report; :class:`Table` keeps that output aligned and consistent.
"""

from __future__ import annotations

from typing import List, Sequence, Union

Cell = Union[str, int, float]


def _format_cell(cell: Cell) -> str:
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, float):
        if cell == float("inf"):
            return "inf"
        if abs(cell) >= 100:
            return f"{cell:,.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    if isinstance(cell, int):
        return f"{cell:,}"
    return str(cell)


class Table:
    """A fixed-header ASCII table."""

    def __init__(self, headers: Sequence[str], title: str = "") -> None:
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def row(self, *cells: Cell) -> "Table":
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has "
                f"{len(self.headers)} columns"
            )
        self.rows.append([_format_cell(cell) for cell in cells])
        return self

    def render(self) -> str:
        widths = [
            max(len(self.headers[i]), *(len(r[i]) for r in self.rows))
            if self.rows
            else len(self.headers[i])
            for i in range(len(self.headers))
        ]
        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        header = "  ".join(
            h.ljust(widths[i]) for i, h in enumerate(self.headers)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

