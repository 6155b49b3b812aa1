"""ASCII rendering of factor tables and series.

The experiments print their artifacts in the layout of the paper: factor
tables with one column per configuration (Tables I/II), and simple labeled
series for the runtime figures.  Keeping this as dumb text keeps the
benchmark harness dependency-free and diffable.
"""

from __future__ import annotations

import typing as _t

__all__ = [
    "format_factor_table",
    "format_series",
    "format_comparison",
    "render_timeline",
    "TIMELINE_GLYPHS",
]

#: Default glyph per phase for :func:`render_timeline` ('.' = idle / in MPI).
TIMELINE_GLYPHS = {
    "prepare_psis": "p",
    "pack_sticks": "p",
    "unpack_sticks": "p",
    "fft_z": "z",
    "scatter_reorder": "s",
    "fft_xy": "X",
    "vofr": "v",
}


def format_factor_table(
    columns: _t.Sequence[tuple[str, _t.Mapping[str, float]]],
    title: str = "",
    reference: _t.Mapping[str, _t.Sequence[float]] | None = None,
) -> str:
    """Render factor columns like the paper's Table I/II.

    ``columns`` is a sequence of ``(label, rows)`` with ``rows`` as returned
    by :func:`repro.analysis.pop.factor_rows`.  If ``reference`` maps row
    labels to the paper's published percentages, a second line per row shows
    them for side-by-side comparison.
    """
    labels = [lbl for lbl, _ in columns]
    rows = list(columns[0][1])
    name_width = max(len(r) for r in rows) + 2
    col_width = max(9, max(len(l) for l in labels) + 2)

    lines = []
    if title:
        lines.append(title)
    header = " " * name_width + "".join(f"{l:>{col_width}}" for l in labels)
    lines.append(header)
    lines.append("-" * len(header))
    for row_label in rows:
        vals = [col[row_label] for _, col in columns]
        line = f"{row_label:<{name_width}}" + "".join(
            f"{v * 100:>{col_width - 2}.2f} %" for v in vals
        )
        lines.append(line)
        if reference and row_label in reference:
            ref_vals = reference[row_label]
            ref_line = f"{'  (paper)':<{name_width}}" + "".join(
                f"{v:>{col_width - 2}.2f} %" for v in ref_vals
            )
            lines.append(ref_line)
    return "\n".join(lines)


def format_series(
    points: _t.Sequence[tuple[str, float]],
    title: str = "",
    unit: str = "ms",
    scale: float = 1e3,
    bar_width: int = 40,
) -> str:
    """Render a labeled series with proportional ASCII bars (the figures)."""
    lines = [title] if title else []
    if not points:
        return title
    peak = max(v for _, v in points)
    label_width = max(len(l) for l, _ in points) + 2
    for label, value in points:
        bar = "#" * max(1, int(round(bar_width * value / peak))) if peak > 0 else ""
        lines.append(f"{label:<{label_width}}{value * scale:>10.2f} {unit}  {bar}")
    return "\n".join(lines)


def render_timeline(
    trace,
    width: int = 100,
    max_rows: int = 16,
    glyphs: _t.Mapping[str, str] | None = None,
) -> str:
    """ASCII timeline of compute phases: one row per stream, one column per
    time bucket (the poor man's Paraver view behind Figs. 3 and 7).

    Buckets show the phase glyph of whatever compute interval covers them;
    idle/MPI time shows as '.'.
    """
    from repro.perf.timeline import phase_intervals

    glyphs = dict(TIMELINE_GLYPHS if glyphs is None else glyphs)
    intervals = phase_intervals(trace, 1.0)
    if not intervals:
        return "(no compute intervals)"
    span = max(iv.end for iv in intervals)
    streams = trace.streams[:max_rows]
    rows = []
    for stream in streams:
        line = ["."] * width
        for iv in intervals:
            if iv.stream != stream:
                continue
            a = int(iv.begin / span * (width - 1))
            b = max(a + 1, int(iv.end / span * (width - 1)))
            glyph = glyphs.get(iv.phase, "?")
            for k in range(a, min(b, width)):
                line[k] = glyph
        rows.append(f"{str(stream):>9} {''.join(line)}")
    if len(trace.streams) > max_rows:
        rows.append(f"          ... ({len(trace.streams) - max_rows} more streams)")
    return "\n".join(rows)


def format_comparison(
    rows: _t.Sequence[tuple[str, float, float]],
    title: str = "",
    headers: tuple[str, str] = ("measured", "paper"),
) -> str:
    """Two-value comparison table (measured vs. paper anchors)."""
    lines = [title] if title else []
    label_width = max((len(r[0]) for r in rows), default=8) + 2
    lines.append(f"{'':<{label_width}}{headers[0]:>12}{headers[1]:>12}")
    for label, measured, paper in rows:
        lines.append(f"{label:<{label_width}}{measured:>12.3f}{paper:>12.3f}")
    return "\n".join(lines)
