"""ASCII rendering of result tables and series.

Every benchmark prints its figure/table through these helpers so the
output format is uniform and diffable (EXPERIMENTS.md records it).
"""

from __future__ import annotations

from typing import Optional, Sequence

#: Plot area of :func:`format_ascii_plot`, in characters.
PLOT_WIDTH = 64
PLOT_HEIGHT = 16


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """A fixed-width table with a rule under the header."""
    texts = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in texts:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(headers))
    lines.append("  ".join("-" * width for width in widths))
    for row in texts:
        lines.append(render_row(row))
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence[object],
    series: dict[str, Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """A figure as a table: one x column plus one column per line."""
    headers = [x_label] + list(series)
    rows = []
    for index, x in enumerate(x_values):
        row = [x] + [values[index] for values in series.values()]
        rows.append(row)
    return format_table(headers, rows, title=title)


def diff_counts(
    before: dict[str, int],
    after: dict[str, int],
    keys: Optional[Sequence[str]] = None,
) -> dict[str, int]:
    """Per-key difference of two counter snapshots (``after - before``).

    ``keys`` fixes the output order and forces a 0 entry for counters
    absent from both snapshots — the shape the T1 signalling table
    needs when differencing hop totals around a handoff.
    """
    if keys is None:
        keys = list(dict.fromkeys([*before, *after]))
    return {key: after.get(key, 0) - before.get(key, 0) for key in keys}


def format_ascii_plot(
    x_label: str,
    x_values: Sequence[object],
    series: dict[str, Sequence[float]],
    title: Optional[str] = None,
) -> str:
    """A figure as a deterministic ASCII chart: one letter per series.

    Used as the figure fallback when matplotlib is unavailable (see
    :func:`repro.experiments.runner.save_experiment_figure`).  Pure
    function of its inputs — same data, same bytes — so sweep figure
    files stay byte-identical across backends and repeats.

    Parameters
    ----------
    x_label / x_values:
        The shared x axis.  Non-numeric x values are plotted at their
        index positions.
    series:
        ``name -> y values`` (parallel to ``x_values``); NaNs are
        skipped.  Each series is drawn with the letter A, B, C, ... in
        iteration order; overlapping points render as ``*``.
    title:
        Chart caption.

    Returns
    -------
    str
        The rendered chart, including a legend and axis ranges.
    """
    numeric_x = all(isinstance(x, (int, float)) for x in x_values)
    xs = [float(x) if numeric_x else float(i) for i, x in enumerate(x_values)]
    points = []  # (column, row-from-bottom, series index)
    ys = [
        y
        for values in series.values()
        for y in values
        if isinstance(y, (int, float)) and y == y
    ]
    if not xs or not ys:
        return (title or "") + "\n(no data to plot)"
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    for index, values in enumerate(series.values()):
        for x, y in zip(xs, values):
            if not isinstance(y, (int, float)) or y != y:
                continue
            column = round((x - x_lo) / x_span * (PLOT_WIDTH - 1))
            row = round((y - y_lo) / y_span * (PLOT_HEIGHT - 1))
            points.append((column, row, index))

    grid = [[" "] * PLOT_WIDTH for _ in range(PLOT_HEIGHT)]
    for column, row, index in points:
        line = grid[PLOT_HEIGHT - 1 - row]
        letter = chr(ord("A") + index % 26)
        line[column] = "*" if line[column] not in (" ", letter) else letter

    lines = []
    if title:
        lines.append(title)
    lines.append(f"y: {_cell(float(y_lo))} .. {_cell(float(y_hi))}")
    lines.append("+" + "-" * PLOT_WIDTH + "+")
    for row in grid:
        lines.append("|" + "".join(row) + "|")
    lines.append("+" + "-" * PLOT_WIDTH + "+")
    x_left = _cell(x_values[0]) if not numeric_x else _cell(float(x_lo))
    x_right = _cell(x_values[-1]) if not numeric_x else _cell(float(x_hi))
    lines.append(f"x: {x_label} = {x_left} .. {x_right}")
    for index, name in enumerate(series):
        lines.append(f"  {chr(ord('A') + index % 26)} = {name}")
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # nan
            return "nan"
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)
