"""Plain-text table rendering for experiment reports.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep that output consistent and dependency-free.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

#: The source of a reported number the model computes from the design, as
#: opposed to the names of the constants a calibrated number comes from.
DERIVED: tuple[str, ...] = ()


def provenance(source: tuple[str, ...]) -> str:
    """The label of a reported number: ``calibrated`` or ``derived``."""
    return "calibrated" if source else "derived"


def _format_cell(value: object, precision: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    precision: int = 3,
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned plain-text table."""
    rendered_rows = [[_format_cell(cell, precision) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} headers"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(render_line([str(header) for header in headers]))
    lines.append(render_line(["-" * width for width in widths]))
    lines.extend(render_line(row) for row in rendered_rows)
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence[float],
    series: dict[str, Sequence[float]],
    precision: int = 3,
    title: str | None = None,
) -> str:
    """Render one or more y-series against a shared x axis (a 'figure' as text)."""
    headers = [x_label, *series.keys()]
    rows = []
    for index, x_value in enumerate(x_values):
        row: list[object] = [x_value]
        for values in series.values():
            row.append(values[index])
        rows.append(row)
    return format_table(headers, rows, precision=precision, title=title)
