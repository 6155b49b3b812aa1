"""Run comparison: where did the time go between two executions?

The analyst's follow-up question after any optimization — "which phases got
faster, which got slower, and did communication or computation move?" —
answered by aligning two traces phase by phase.  This is the quantitative
version of the paper's side-by-side Fig. 7 reading.

:func:`compare_runs` aggregates each trace into per-phase compute time/IPC
and per-communicator-layer MPI time, then reports absolute and relative
deltas; :func:`format_run_comparison` renders the table.

The same comparison also works *offline* on run manifests
(:mod:`repro.telemetry.manifest`): :func:`diff_manifests` aligns two saved
artifacts, :func:`format_manifest_diff` renders the report the
``perf diff`` CLI prints, and :func:`manifest_regressions` is the
``perf check`` gate — a list of human-readable violations when the
candidate run is slower than the baseline beyond a threshold.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.perf.timeline import phase_summary
from repro.telemetry.layers import comm_layer
from repro.telemetry.trace import Trace

__all__ = [
    "PhaseDelta",
    "RunComparison",
    "compare_runs",
    "format_run_comparison",
    "ManifestDiff",
    "diff_manifests",
    "format_manifest_diff",
    "manifest_regressions",
]


@dataclasses.dataclass(frozen=True)
class PhaseDelta:
    """One phase's aggregate change between runs A and B."""

    name: str
    time_a: float
    time_b: float
    ipc_a: float
    ipc_b: float

    @property
    def time_delta(self) -> float:
        return self.time_b - self.time_a

    @property
    def relative(self) -> float:
        """Relative time change (B vs A; negative = faster)."""
        if self.time_a <= 0:
            return float("inf") if self.time_b > 0 else 0.0
        return self.time_b / self.time_a - 1.0


@dataclasses.dataclass
class RunComparison:
    """Phase-by-phase and layer-by-layer deltas between two traces."""

    phases: list[PhaseDelta]
    mpi_a: dict[str, float]  # communicator-layer -> accumulated seconds
    mpi_b: dict[str, float]
    total_compute_a: float
    total_compute_b: float

    def regressions(self, threshold: float = 0.05) -> list[PhaseDelta]:
        """Phases that got slower by more than ``threshold`` (relative)."""
        return [p for p in self.phases if p.relative > threshold]

    def improvements(self, threshold: float = 0.05) -> list[PhaseDelta]:
        """Phases that got faster by more than ``threshold`` (relative)."""
        return [p for p in self.phases if p.relative < -threshold]


def _mpi_by_layer(trace: Trace) -> dict[str, float]:
    out: dict[str, float] = {}
    for r in trace.mpi:
        layer = comm_layer(r.comm_name)  # pack3 -> pack
        out[layer] = out.get(layer, 0.0) + r.duration
    return out


def compare_runs(trace_a: Trace, trace_b: Trace, frequency_hz: float) -> RunComparison:
    """Align two traces phase by phase (union of phase names)."""
    sum_a = phase_summary(trace_a, frequency_hz)
    sum_b = phase_summary(trace_b, frequency_hz)
    phases = []
    for name in sorted(set(sum_a) | set(sum_b)):
        a = sum_a.get(name, {"time": 0.0, "ipc": 0.0})
        b = sum_b.get(name, {"time": 0.0, "ipc": 0.0})
        phases.append(
            PhaseDelta(
                name=name,
                time_a=a["time"],
                time_b=b["time"],
                ipc_a=a.get("ipc", 0.0),
                ipc_b=b.get("ipc", 0.0),
            )
        )
    return RunComparison(
        phases=phases,
        mpi_a=_mpi_by_layer(trace_a),
        mpi_b=_mpi_by_layer(trace_b),
        total_compute_a=sum(p.time_a for p in phases),
        total_compute_b=sum(p.time_b for p in phases),
    )


def format_run_comparison(
    comparison: RunComparison, labels: tuple[str, str] = ("A", "B")
) -> str:
    """Render the comparison as an ASCII table."""
    la, lb = labels
    lines = [
        f"{'phase':<18}{la + ' time':>12}{lb + ' time':>12}{'delta':>9}"
        f"{la + ' IPC':>9}{lb + ' IPC':>9}",
        "-" * 69,
    ]
    for p in comparison.phases:
        rel = p.relative
        rel_str = f"{rel * 100:+6.1f}%" if rel != float("inf") else "   new"
        lines.append(
            f"{p.name:<18}{p.time_a * 1e3:>10.2f}ms{p.time_b * 1e3:>10.2f}ms"
            f"{rel_str:>9}{p.ipc_a:>9.3f}{p.ipc_b:>9.3f}"
        )
    lines.append("-" * 69)
    rel_total = (
        comparison.total_compute_b / comparison.total_compute_a - 1.0
        if comparison.total_compute_a > 0
        else 0.0
    )
    lines.append(
        f"{'total compute':<18}{comparison.total_compute_a * 1e3:>10.2f}ms"
        f"{comparison.total_compute_b * 1e3:>10.2f}ms{rel_total * 100:>+8.1f}%"
    )
    for layer in sorted(set(comparison.mpi_a) | set(comparison.mpi_b)):
        a = comparison.mpi_a.get(layer, 0.0)
        b = comparison.mpi_b.get(layer, 0.0)
        lines.append(
            f"{'MPI ' + layer:<18}{a * 1e3:>10.2f}ms{b * 1e3:>10.2f}ms"
        )
    return "\n".join(lines)


# -- manifest diffing (the perf diff / perf check CLI) -----------------------


@dataclasses.dataclass
class ManifestDiff:
    """Aligned view of two run manifests (A = baseline, B = candidate)."""

    label_a: str
    label_b: str
    phase_time_a: float
    phase_time_b: float
    average_ipc_a: float
    average_ipc_b: float
    phases: list[PhaseDelta]
    mpi_a: dict[str, float]
    mpi_b: dict[str, float]
    pop_a: dict[str, float]
    pop_b: dict[str, float]

    @property
    def runtime_relative(self) -> float:
        """Relative phase-runtime change (B vs A; negative = faster)."""
        if self.phase_time_a <= 0:
            return float("inf") if self.phase_time_b > 0 else 0.0
        return self.phase_time_b / self.phase_time_a - 1.0


def _manifest_pop(manifest: dict) -> dict:
    """The factor dict of a manifest: ``analysis.pop``; the top-level ``pop``
    only as the reader of manifests written before that section went."""
    pop = (manifest.get("analysis") or {}).get("pop")
    if isinstance(pop, dict):
        return pop
    return manifest.get("pop") or {}


def _manifest_phases(manifest: dict) -> dict[str, dict]:
    return {
        name: entry
        for name, entry in manifest.get("phases", {}).items()
        if isinstance(entry, dict)
    }


def diff_manifests(manifest_a: dict, manifest_b: dict) -> ManifestDiff:
    """Align two run manifests phase by phase (union of phase names)."""
    phases_a = _manifest_phases(manifest_a)
    phases_b = _manifest_phases(manifest_b)
    phases = []
    for name in sorted(set(phases_a) | set(phases_b)):
        a = phases_a.get(name, {})
        b = phases_b.get(name, {})
        phases.append(
            PhaseDelta(
                name=name,
                time_a=float(a.get("time_s", 0.0)),
                time_b=float(b.get("time_s", 0.0)),
                ipc_a=float(a.get("ipc", 0.0)),
                ipc_b=float(b.get("ipc", 0.0)),
            )
        )
    return ManifestDiff(
        label_a=manifest_a["config"]["label"],
        label_b=manifest_b["config"]["label"],
        phase_time_a=float(manifest_a["timing"]["phase_time_s"]),
        phase_time_b=float(manifest_b["timing"]["phase_time_s"]),
        average_ipc_a=float(manifest_a.get("average_ipc", 0.0)),
        average_ipc_b=float(manifest_b.get("average_ipc", 0.0)),
        phases=phases,
        mpi_a={
            layer: float(entry.get("time_s", 0.0))
            for layer, entry in manifest_a.get("mpi", {}).items()
        },
        mpi_b={
            layer: float(entry.get("time_s", 0.0))
            for layer, entry in manifest_b.get("mpi", {}).items()
        },
        pop_a=_manifest_pop(manifest_a),
        pop_b=_manifest_pop(manifest_b),
    )


def format_manifest_diff(diff: ManifestDiff) -> str:
    """Render a manifest diff: runtime, per-phase time/IPC, MPI, POP."""
    # Deferred: repro.analysis (triage) imports this module.
    from repro.analysis.pop import FACTOR_KEYS

    la, lb = diff.label_a[:16], diff.label_b[:16]
    rel = diff.runtime_relative
    rel_str = f"{rel * 100:+.1f}%" if rel != float("inf") else "new"
    lines = [
        f"A: {diff.label_a}",
        f"B: {diff.label_b}",
        f"phase runtime: {diff.phase_time_a * 1e3:.3f} ms -> "
        f"{diff.phase_time_b * 1e3:.3f} ms ({rel_str})",
        f"average IPC:   {diff.average_ipc_a:.3f} -> {diff.average_ipc_b:.3f}",
        "",
        f"{'phase':<18}{'A time':>12}{'B time':>12}{'delta':>9}"
        f"{'A IPC':>9}{'B IPC':>9}",
        "-" * 69,
    ]
    for p in diff.phases:
        prel = p.relative
        prel_str = f"{prel * 100:+6.1f}%" if prel != float("inf") else "   new"
        lines.append(
            f"{p.name:<18}{p.time_a * 1e3:>10.2f}ms{p.time_b * 1e3:>10.2f}ms"
            f"{prel_str:>9}{p.ipc_a:>9.3f}{p.ipc_b:>9.3f}"
        )
    for layer in sorted(set(diff.mpi_a) | set(diff.mpi_b)):
        a = diff.mpi_a.get(layer, 0.0)
        b = diff.mpi_b.get(layer, 0.0)
        lines.append(f"{'MPI ' + layer:<18}{a * 1e3:>10.2f}ms{b * 1e3:>10.2f}ms")
    pop_keys = [k for k in FACTOR_KEYS if k in diff.pop_a or k in diff.pop_b]
    if pop_keys:
        lines.append("")
        lines.append(f"{'POP factor':<28}{'A':>8}{'B':>8}")
        for k in pop_keys:
            a = diff.pop_a.get(k)
            b = diff.pop_b.get(k)
            fa = f"{a:.3f}" if isinstance(a, (int, float)) else "-"
            fb = f"{b:.3f}" if isinstance(b, (int, float)) else "-"
            lines.append(f"{k:<28}{fa:>8}{fb:>8}")
    return "\n".join(lines)


def manifest_regressions(
    baseline: dict, candidate: dict, threshold: float = 0.05
) -> list[str]:
    """Regression-gate check: violations of ``candidate`` vs ``baseline``.

    Flags the simulated phase runtime and any per-phase compute time that
    grew by more than ``threshold`` (relative).  An empty list means the
    candidate passes.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    diff = diff_manifests(baseline, candidate)
    violations = []
    if diff.runtime_relative > threshold:
        violations.append(
            f"phase runtime regressed {diff.runtime_relative * 100:+.1f}% "
            f"({diff.phase_time_a * 1e3:.3f} ms -> {diff.phase_time_b * 1e3:.3f} ms), "
            f"threshold {threshold * 100:.1f}%"
        )
    for p in diff.phases:
        if p.time_a > 0 and p.relative > threshold:
            violations.append(
                f"phase {p.name!r} compute time regressed {p.relative * 100:+.1f}% "
                f"({p.time_a * 1e3:.3f} ms -> {p.time_b * 1e3:.3f} ms)"
            )
    return violations
