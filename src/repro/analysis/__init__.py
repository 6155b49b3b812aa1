"""Performance analytics over recorded telemetry (the POP toolchain).

The telemetry layer records; this package explains.  It consumes what a run
already emits — span trees, compute/MPI/task records, hardware counters,
run and sweep manifests — and produces the three artifacts the paper's
methodology rests on:

* the **POP multiplicative efficiency model** per run and per phase
  (:mod:`repro.analysis.pop`),
* the **critical path** through the simulated timeline and the ompss task
  graph (:mod:`repro.analysis.critpath`),
* **regression triage** for manifest pairs — which phase, which factor,
  which counter moved (:mod:`repro.analysis.triage`).

Everything here is read-only over existing data: analyzing a run never
perturbs the simulation (the golden-manifest gate pins this).

Entry points
------------
:func:`analyze_run` (a live :class:`~repro.core.driver.RunResult`),
:func:`analyze_session` (a telemetry session, used by the driver at
finalization), :func:`analyze_manifest` / :func:`analyze_pair` /
:func:`analyze_sweep` (JSON artifacts, used by the CLI).
"""

from __future__ import annotations

import dataclasses
import typing as _t
import warnings

from repro.analysis.critpath import (
    CriticalPath,
    GraphCriticalPath,
    critical_path_from_trace,
    graph_critical_path,
    slack_histogram,
)
from repro.analysis.pop import (
    CommLayerSplit,
    PhaseEfficiency,
    PopDecomposition,
    StreamTimeline,
    compute_totals,
    decompose,
    factor_rows,
    timelines_from_counters,
    timelines_from_trace,
)

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.triage import TriageReport
    from repro.core.driver import RunResult
    from repro.machine.counters import CounterSet
    from repro.telemetry import Telemetry
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.trace import Trace

__all__ = [
    "ANALYSIS_SCHEMA_VERSION",
    "RunAnalysis",
    "analyze_run",
    "analyze_session",
    "analyze_manifest",
    "analyze_pair",
    "analyze_sweep",
    "efficiency_summary",
    # re-exports
    "PopDecomposition",
    "PhaseEfficiency",
    "CommLayerSplit",
    "StreamTimeline",
    "decompose",
    "factor_rows",
    "compute_totals",
    "timelines_from_trace",
    "timelines_from_counters",
    "CriticalPath",
    "GraphCriticalPath",
    "critical_path_from_trace",
    "graph_critical_path",
    "slack_histogram",
]

ANALYSIS_SCHEMA_VERSION = 1

#: The four headline factors (sweep series columns, ``analysis.*`` gauges),
#: in report order.
FACTOR_KEYS = (
    "parallel_efficiency",
    "load_balance",
    "serialization_efficiency",
    "transfer_efficiency",
)


@dataclasses.dataclass
class RunAnalysis:
    """The derived analytics of one run (embedded as ``manifest["analysis"]``)."""

    pop: PopDecomposition | None
    critical_path: CriticalPath | None
    task_graph: GraphCriticalPath | None
    unclosed_spans: int

    def to_dict(self) -> dict:
        return {
            "schema_version": ANALYSIS_SCHEMA_VERSION,
            "unclosed_spans": self.unclosed_spans,
            "pop": self.pop.to_dict() if self.pop is not None else None,
            "critical_path": (
                self.critical_path.to_dict() if self.critical_path is not None else None
            ),
            "task_graph": (
                self.task_graph.to_dict() if self.task_graph is not None else None
            ),
        }

    def publish(self, metrics: "MetricsRegistry") -> None:
        """Summarize as ``analysis.*`` gauges for metric-level consumers."""
        metrics.set_gauge("analysis.unclosed_spans", float(self.unclosed_spans))
        if self.pop is not None:
            for key in FACTOR_KEYS:
                metrics.set_gauge(f"analysis.{key}", getattr(self.pop, key))
        if self.critical_path is not None:
            crit = self.critical_path
            metrics.set_gauge("analysis.critical_path_seconds", crit.length_s)
            for kind, seconds in crit.by_kind.items():
                metrics.set_gauge("analysis.critical_path_share", seconds, kind=kind)
        if self.task_graph is not None:
            metrics.set_gauge("analysis.task_chain_seconds", self.task_graph.length_s)


def _decompose_run(
    trace: "Trace | None",
    counters: "CounterSet | None",
    makespan_s: float,
    ideal_time_s: float | None,
) -> PopDecomposition | None:
    """Decompose from the trace records, else from the hardware counters."""
    timelines = timelines_from_trace(trace) if trace is not None else []
    if not timelines and counters is not None:
        timelines = timelines_from_counters(counters)
    if not timelines or makespan_s <= 0:
        return None
    return decompose(timelines, makespan_s, ideal_time_s=ideal_time_s)


def analyze_session(
    tel: "Telemetry",
    makespan_s: float,
    counters: "CounterSet | None" = None,
    ideal_time_s: float | None = None,
) -> RunAnalysis:
    """Analyze a finalized telemetry session.

    Called by the driver at run finalization (and usable standalone on any
    session).  Prefers the trace records (full sync/transfer split and a
    timeline critical path); falls back to the hardware ``counters`` for
    compute-only factors when the session carries no trace.
    """
    unclosed = sum(1 for s in tel.spans.all() if s.t_end is None)
    if unclosed:
        warnings.warn(
            f"{unclosed} span(s) still open at run finalization — the span "
            "tree is truncated (crashed or fault-killed task?); analysis "
            "and exports see incomplete intervals",
            RuntimeWarning,
            stacklevel=2,
        )

    pop = _decompose_run(tel.trace, counters, makespan_s, ideal_time_s)

    critical = None
    if tel.trace.compute or tel.trace.mpi:
        critical = critical_path_from_trace(tel.trace, makespan_s)

    graph = _task_graph_analysis(tel)
    return RunAnalysis(
        pop=pop, critical_path=critical, task_graph=graph, unclosed_spans=unclosed
    )


def _task_graph_analysis(tel: "Telemetry") -> GraphCriticalPath | None:
    """CPM over the exported ompss dependency edges (task versions only)."""
    if not tel.trace.tasks:
        return None
    tasks: dict[tuple[int, int], tuple[str, float]] = {}
    for rank, rec in tel.trace.tasks:
        # "pack:('it', 1)" / "fft_z[0:10]" -> task type "pack" / "fft_z".
        kind = rec.name.split("[", 1)[0].split(":", 1)[0].rstrip("0123456789")
        tasks[(rank, rec.tid)] = (kind, rec.duration)
    edges = [
        ((rank, pred), (rank, succ))
        for rank, pred, succ in tel.task_edges
        if (rank, pred) in tasks and (rank, succ) in tasks
    ]
    try:
        return graph_critical_path(tasks, edges)
    except ValueError:
        # A truncated trace (fault-killed run) can expose a malformed
        # subgraph; analysis degrades to "no task view" rather than failing
        # the run summary.
        return None


def analyze_run(
    result: "RunResult", ideal_time_s: float | None = None
) -> RunAnalysis:
    """Analyze a completed :class:`~repro.core.driver.RunResult`.

    ``ideal_time_s`` is the runtime of the same configuration on the ideal
    network (``run --pop``, ``SweepTask(ideal_replay=True)``): it re-splits
    serialization/transfer with ``split_source == "replay"``.  On a
    telemetry-enabled run that is a re-split only — the critical path and
    task graph stashed at finalization are kept.
    """
    tel = result.telemetry
    counters = result.cpu.counters
    if tel is None or not tel.enabled:
        pop = _decompose_run(None, counters, result.phase_time, ideal_time_s)
        return RunAnalysis(
            pop=pop, critical_path=None, task_graph=None, unclosed_spans=0
        )
    if tel.analysis is None:
        # A session that bypassed the driver's finalization summary.
        return analyze_session(tel, result.phase_time, counters, ideal_time_s)
    if ideal_time_s is None:
        return tel.analysis
    return dataclasses.replace(
        tel.analysis,
        pop=_decompose_run(tel.trace, counters, result.phase_time, ideal_time_s),
    )


# ---------------------------------------------------------------------------
# Manifest-level entry points (the CLI's substrate)


def analyze_manifest(manifest: dict) -> dict:
    """The ``analysis`` section of a run manifest, with context attached.

    Returns ``{"label", "phase_time_s", "analysis"}``.  Raises
    :class:`ValueError` when the manifest predates the analysis section —
    the caller should regenerate it with telemetry enabled.
    """
    section = manifest.get("analysis")
    if section is None:
        raise ValueError(
            "manifest has no 'analysis' section; regenerate it with a "
            "telemetry-enabled run (RunConfig(telemetry=True) or the CLI "
            "run command)"
        )
    return {
        "label": manifest.get("config", {}).get("label", "?"),
        "phase_time_s": manifest.get("timing", {}).get("phase_time_s"),
        "analysis": section,
    }


def analyze_pair(
    baseline: dict, candidate: dict, threshold: float = 0.02
) -> "TriageReport":
    """Triage a manifest pair: what regressed and which factor moved.

    The triage module loads here, on the first A/B call: a single-run
    analysis never pays for it.
    """
    from repro.analysis.triage import triage_pair

    return triage_pair(baseline, candidate, threshold=threshold)


def analyze_sweep(manifest: dict) -> list[dict]:
    """Efficiency series across a sweep manifest's points.

    Returns one row per point (task order) with the POP factors of its
    summary's analysis section; points without one carry ``None`` factors
    (e.g. a custom reducer that drops the manifest).
    """
    rows = []
    for key, entry in manifest.get("points", {}).items():
        summary = entry.get("summary") or {}
        row: dict[str, _t.Any] = {
            "point": key,
            "phase_time_s": entry.get("phase_time_s"),
            "failed": bool(entry.get("failed", False)),
        }
        section = summary.get("analysis") if isinstance(summary, dict) else None
        row.update(efficiency_summary((section or {}).get("pop") or {}))
        rows.append(row)
    return rows


def efficiency_summary(pop: dict) -> dict:
    """The headline factor columns of one ``analysis.pop`` dict."""
    return {k: pop.get(k) for k in FACTOR_KEYS}
