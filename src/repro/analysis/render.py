"""Text / markdown rendering: the one renderer of every report and table.

The analysis renderers take the JSON-level dict forms (what
:func:`analyze_manifest` returns, ``TriageReport.to_dict()``,
:func:`analyze_sweep` rows) so the CLI can feed either live objects or
reloaded files; JSON output is plain ``json.dumps`` of the same dicts and
needs no renderer.  The experiments print their artifacts in the layout of
the paper through the same module: factor tables with one column per
configuration (Tables I/II), labeled series for the runtime figures,
measured-vs-paper comparisons and the ASCII timeline of Figs. 3 and 7.

``analyze`` imports this module, so it stays free of numpy and the
simulator.
"""

from __future__ import annotations

import typing as _t

from repro.analysis import FACTOR_KEYS

__all__ = [
    "render_analysis_text",
    "render_analysis_markdown",
    "render_triage_text",
    "render_triage_markdown",
    "render_sweep_text",
    "render_sweep_markdown",
    "format_factor_table",
    "format_series",
    "format_comparison",
    "render_timeline",
    "TIMELINE_GLYPHS",
]


def _fmt(value: _t.Any, spec: str = ".4f", missing: str = "-") -> str:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return format(value, spec)
    return missing


def _ms(value: _t.Any) -> str:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return f"{value * 1e3:.3f} ms"
    return "-"


# ---------------------------------------------------------------------------
# Single-run analysis


def _analysis_rows(info: dict) -> dict:
    section = info.get("analysis") or {}
    return {
        "pop": section.get("pop") or {},
        "critical_path": section.get("critical_path"),
        "task_graph": section.get("task_graph"),
        "unclosed_spans": section.get("unclosed_spans", 0),
    }


def render_analysis_text(info: dict) -> str:
    """Human-readable report of one run's analysis section."""
    rows = _analysis_rows(info)
    pop = rows["pop"]
    lines = [
        f"run: {info.get('label', '?')}",
        f"phase runtime: {_ms(info.get('phase_time_s'))}",
        "",
        "POP efficiency factors",
        "-" * 46,
    ]
    for name in (
        "parallel_efficiency",
        "load_balance",
        "serialization_efficiency",
        "transfer_efficiency",
        "communication_efficiency",
    ):
        lines.append(f"  {name.replace('_', ' '):<28}{_fmt(pop.get(name)):>8}")
    if pop.get("split_source"):
        lines.append(
            f"  (serialization/transfer split: {pop['split_source']}, "
            f"ideal runtime {_ms(pop.get('ideal_runtime_s'))})"
        )
    phases = pop.get("phases") or {}
    if phases:
        lines += [
            "",
            f"  {'phase':<18}{'load bal':>9}{'max':>12}{'mean':>12}",
            "  " + "-" * 51,
        ]
        for name in sorted(phases):
            p = phases[name]
            lines.append(
                f"  {name:<18}{_fmt(p.get('load_balance'), '.3f'):>9}"
                f"{_ms(p.get('time_max_s')):>12}{_ms(p.get('time_mean_s')):>12}"
            )
    layers = pop.get("comm_layers") or {}
    if layers:
        lines += [
            "",
            f"  {'MPI layer':<18}{'time':>12}{'sync':>12}{'transfer':>12}",
            "  " + "-" * 54,
        ]
        for name in sorted(layers):
            c = layers[name]
            lines.append(
                f"  {name:<18}{_ms(c.get('time_s')):>12}"
                f"{_ms(c.get('sync_s')):>12}{_ms(c.get('transfer_s')):>12}"
            )
    crit = rows["critical_path"]
    if crit:
        lines += ["", "Critical path", "-" * 46]
        lines.append(
            f"  length {_ms(crit.get('length_s'))} over "
            f"{crit.get('n_segments', 0)} segment(s) "
            f"(makespan {_ms(crit.get('makespan_s'))})"
        )
        by_kind = crit.get("by_kind") or {}
        for kind in sorted(by_kind, key=lambda k: -by_kind[k]):
            lines.append(f"  {kind:<18}{_ms(by_kind[kind]):>12}")
        top = sorted(
            (crit.get("by_label") or {}).items(), key=lambda kv: -kv[1]
        )[:5]
        if top:
            lines.append("  top contributors:")
            for label, t in top:
                lines.append(f"    {label:<20}{_ms(t):>12}")
    graph = rows["task_graph"]
    if graph:
        lines += ["", "Task graph (ompss)", "-" * 46]
        lines.append(
            f"  {graph.get('n_tasks', 0)} tasks, {graph.get('n_edges', 0)} edges; "
            f"longest chain {_ms(graph.get('length_s'))} "
            f"({graph.get('chain_len', 0)} tasks)"
        )
        for entry in graph.get("top_critical") or []:
            lines.append(
                f"    {entry.get('name', '?'):<20}{_ms(entry.get('duration_s')):>12}"
                f"  slack {_ms(entry.get('slack_s'))}"
            )
    if rows["unclosed_spans"]:
        lines += [
            "",
            f"WARNING: {rows['unclosed_spans']} span(s) never closed — "
            "the span tree is truncated.",
        ]
    return "\n".join(lines)


def render_analysis_markdown(info: dict) -> str:
    """Markdown report of one run's analysis section (the CI artifact)."""
    rows = _analysis_rows(info)
    pop = rows["pop"]
    lines = [
        f"# Analysis: {info.get('label', '?')}",
        "",
        f"Simulated phase runtime: **{_ms(info.get('phase_time_s'))}**",
        "",
        "## POP efficiency factors",
        "",
        "| factor | value |",
        "| --- | ---: |",
    ]
    for name in (
        "parallel_efficiency",
        "load_balance",
        "serialization_efficiency",
        "transfer_efficiency",
        "communication_efficiency",
    ):
        lines.append(f"| {name.replace('_', ' ')} | {_fmt(pop.get(name))} |")
    if pop.get("split_source"):
        lines += [
            "",
            f"Serialization/transfer split source: `{pop['split_source']}` "
            f"(ideal runtime {_ms(pop.get('ideal_runtime_s'))}).",
        ]
    phases = pop.get("phases") or {}
    if phases:
        lines += [
            "",
            "## Per-phase load balance",
            "",
            "| phase | load balance | max | mean |",
            "| --- | ---: | ---: | ---: |",
        ]
        for name in sorted(phases):
            p = phases[name]
            lines.append(
                f"| {name} | {_fmt(p.get('load_balance'), '.3f')} | "
                f"{_ms(p.get('time_max_s'))} | {_ms(p.get('time_mean_s'))} |"
            )
    layers = pop.get("comm_layers") or {}
    if layers:
        lines += [
            "",
            "## MPI layers",
            "",
            "| layer | time | sync | transfer |",
            "| --- | ---: | ---: | ---: |",
        ]
        for name in sorted(layers):
            c = layers[name]
            lines.append(
                f"| {name} | {_ms(c.get('time_s'))} | {_ms(c.get('sync_s'))} | "
                f"{_ms(c.get('transfer_s'))} |"
            )
    crit = rows["critical_path"]
    if crit:
        lines += [
            "",
            "## Critical path",
            "",
            f"Length **{_ms(crit.get('length_s'))}** over "
            f"{crit.get('n_segments', 0)} segment(s) "
            f"(makespan {_ms(crit.get('makespan_s'))}).",
            "",
            "| resource | time |",
            "| --- | ---: |",
        ]
        by_kind = crit.get("by_kind") or {}
        for kind in sorted(by_kind, key=lambda k: -by_kind[k]):
            lines.append(f"| {kind} | {_ms(by_kind[kind])} |")
    graph = rows["task_graph"]
    if graph:
        lines += [
            "",
            "## Task graph",
            "",
            f"{graph.get('n_tasks', 0)} tasks, {graph.get('n_edges', 0)} edges; "
            f"longest dependency chain {_ms(graph.get('length_s'))}.",
        ]
    if rows["unclosed_spans"]:
        lines += [
            "",
            f"> **Warning:** {rows['unclosed_spans']} span(s) never closed — "
            "the span tree is truncated.",
        ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Triage (A/B)


def render_triage_text(report: dict, top: int = 8) -> str:
    """Human-readable blame report (``TriageReport.to_dict()`` form)."""
    rel = report.get("runtime_relative")
    rel_str = f"{rel * 100:+.1f}%" if isinstance(rel, (int, float)) else "new"
    lines = [
        f"A: {report.get('label_a', '?')}",
        f"B: {report.get('label_b', '?')}",
        f"verdict: {report.get('verdict', '?').upper()} "
        f"({_ms(report.get('runtime_a_s'))} -> {_ms(report.get('runtime_b_s'))}, "
        f"{rel_str}; threshold {report.get('threshold', 0) * 100:.1f}%)",
    ]
    if report.get("dominant_phase"):
        lines.append(f"dominant phase:  {report['dominant_phase']}")
    if report.get("dominant_factor"):
        lines.append(f"dominant factor: {report['dominant_factor']}")
    findings = report.get("findings") or []
    if findings:
        lines += ["", f"{'kind':<18}{'subject':<26}{'delta':>12}  detail", "-" * 78]
        for f in findings[:top]:
            delta = f.get("delta")
            if f.get("kind") in ("phase", "mpi_layer", "runtime"):
                delta_str = (
                    f"{delta * 1e3:+.3f}ms" if isinstance(delta, (int, float)) else "-"
                )
            else:
                delta_str = _fmt(delta, "+.4f")
            lines.append(
                f"{f.get('kind', '?'):<18}{f.get('subject', '?'):<26}"
                f"{delta_str:>12}  {f.get('detail', '')}"
            )
        if len(findings) > top:
            lines.append(f"... and {len(findings) - top} more finding(s)")
    return "\n".join(lines)


def render_triage_markdown(report: dict, top: int = 8) -> str:
    """Markdown blame report."""
    rel = report.get("runtime_relative")
    rel_str = f"{rel * 100:+.1f}%" if isinstance(rel, (int, float)) else "new"
    lines = [
        f"# Triage: {report.get('label_a', '?')} → {report.get('label_b', '?')}",
        "",
        f"**Verdict: {report.get('verdict', '?').upper()}** — "
        f"{_ms(report.get('runtime_a_s'))} → {_ms(report.get('runtime_b_s'))} "
        f"({rel_str}).",
    ]
    if report.get("dominant_phase") or report.get("dominant_factor"):
        lines.append("")
        if report.get("dominant_phase"):
            lines.append(f"- Dominant phase: `{report['dominant_phase']}`")
        if report.get("dominant_factor"):
            lines.append(f"- Dominant factor: `{report['dominant_factor']}`")
    findings = report.get("findings") or []
    if findings:
        lines += [
            "",
            "| kind | subject | A | B | Δ | detail |",
            "| --- | --- | ---: | ---: | ---: | --- |",
        ]
        for f in findings[:top]:
            lines.append(
                f"| {f.get('kind', '?')} | {f.get('subject', '?')} | "
                f"{_fmt(f.get('value_a'), '.6g')} | {_fmt(f.get('value_b'), '.6g')} | "
                f"{_fmt(f.get('delta'), '+.6g')} | {f.get('detail', '')} |"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Sweep efficiency series


#: Text-table titles of the sweep columns, one per
#: :data:`~repro.analysis.FACTOR_KEYS` entry.
_SWEEP_TITLES = ("par eff", "load bal", "serial", "transfer")


def render_sweep_text(rows: _t.Sequence[dict]) -> str:
    """Efficiency scaling series of a sweep manifest, as an ASCII table."""
    header = f"{'point':<34}{'time':>12}" + "".join(
        f"{title:>10}" for title in _SWEEP_TITLES
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = "".join(
            f"{_fmt(row.get(key), '.4f'):>10}" for key in FACTOR_KEYS
        )
        flag = " (FAILED)" if row.get("failed") else ""
        lines.append(
            f"{row.get('point', '?'):<34}{_ms(row.get('phase_time_s')):>12}"
            f"{cells}{flag}"
        )
    return "\n".join(lines)


def render_sweep_markdown(rows: _t.Sequence[dict]) -> str:
    """Efficiency scaling series as a markdown table."""
    lines = [
        "# Sweep efficiency series",
        "",
        "| point | time | par eff | load bal | serialization | transfer |",
        "| --- | ---: | ---: | ---: | ---: | ---: |",
    ]
    for row in rows:
        cells = " | ".join(
            _fmt(row.get(key), ".4f") for key in FACTOR_KEYS
        )
        point = row.get("point", "?")
        if row.get("failed"):
            point = f"{point} ⚠"
        lines.append(f"| {point} | {_ms(row.get('phase_time_s'))} | {cells} |")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Experiment tables, series and timelines

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
    from repro.analysis.timeline import phase_intervals

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
