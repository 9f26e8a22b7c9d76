"""Fixed-width table renderer.

Every benchmark prints its results in the layout of the paper table it
reproduces; this module does the column sizing and alignment.
"""

from __future__ import annotations

__all__ = ["Table", "format_float", "format_percent"]


def format_float(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"


def format_percent(value: float) -> str:
    return f"{100.0 * value:.1f}%"


class Table:
    """A titled fixed-width text table."""

    def __init__(self, title: str, columns: list[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[str]] = []

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([str(cell) for cell in cells])

    def add_separator(self) -> None:
        self.rows.append(["---"] * len(self.columns))

    def render(self) -> str:
        widths = [len(col) for col in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))

        def line(cells: list[str]) -> str:
            return " | ".join(cell.ljust(width) for cell, width in zip(cells, widths))

        separator = "-+-".join("-" * width for width in widths)
        out = [self.title, "=" * max(len(self.title), 8), line(self.columns), separator]
        for row in self.rows:
            if row[0] == "---":
                out.append(separator)
            else:
                out.append(line(row))
        return "\n".join(out)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
