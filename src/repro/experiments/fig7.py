"""Figure 7: the de-synchronization effect, 8x8 original vs. OmpSs.

Left panels (timelines): the original executes the compute phases in
synchronized blocks across processes; the OmpSs version executes them
asynchronously.  Right panels (histograms): the per-phase IPC distribution
— tightly clustered for the original, scattered and shifted right for
OmpSs; "the average IPC for these phases is increased from about 0.75 to
0.85 IPC".

We quantify both: the main-phase IPC shift, the IPC spread, and a
synchrony index (what fraction of main-phase compute time overlaps with
more than 3/4 of the node also being in the main phase).  The two traced
runs execute through the sweep engine (one point per version).
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.experiments.common import ExperimentReport, paper_config, sweep_summaries
from repro.experiments.paperdata import PAPER
from repro.machine import knl_parameters
from repro.perf.report import format_comparison
from repro.perf.timeline import ipc_histogram, phase_intervals
from repro.sweep import SweepTask
from repro.telemetry import Trace

__all__ = ["run_fig7", "synchrony_index", "reduce_fig7"]

MAIN_PHASES = ("fft_xy",)


def synchrony_index(trace: Trace, phases: _t.Collection[str], threshold: float = 0.75) -> float:
    """Fraction of phase time spent while >= threshold of streams run the same phases.

    1.0 means perfectly synchronized execution (the original's lock-step
    blocks); lower values mean de-synchronization.
    """
    intervals = [iv for iv in phase_intervals(trace, 1.0) if iv.phase in phases]
    if not intervals:
        return 0.0
    n_streams = len(trace.streams)
    edges = sorted({iv.begin for iv in intervals} | {iv.end for iv in intervals})
    synced = 0.0
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        mid = 0.5 * (a + b)
        active = sum(1 for iv in intervals if iv.begin <= mid < iv.end)
        span = (b - a) * active
        total += span
        if active >= threshold * n_streams:
            synced += span
    return synced / total if total > 0 else 0.0


def reduce_fig7(task, result, ideal, trace) -> dict:
    """In-worker reduction: main-phase IPC statistics of one traced version."""
    freq = knl_parameters().frequency_hz
    hist, edges, _streams = ipc_histogram(trace, freq, phases=MAIN_PHASES)
    weights = hist.sum(axis=0)
    centers = 0.5 * (edges[:-1] + edges[1:])
    total = weights.sum()
    mean = float((weights * centers).sum() / total) if total > 0 else 0.0
    var = float((weights * (centers - mean) ** 2).sum() / total) if total > 0 else 0.0
    # The traced records carry the full sync/transfer split, so the POP
    # factors here are the trace-estimated decomposition, not the neutral
    # counters-only one.
    from repro.analysis import decompose, timelines_from_trace

    timelines = timelines_from_trace(trace) if trace is not None else []
    return {
        "mean_ipc": mean,
        "ipc_std": float(np.sqrt(var)),
        "synchrony": synchrony_index(trace, MAIN_PHASES),
        "efficiency": (
            decompose(timelines, result.phase_time).factors()
            if timelines and result.phase_time > 0
            else None
        ),
    }


def run_fig7(ranks: int = 8, jobs: int = 1, **overrides: _t.Any) -> ExperimentReport:
    """Trace both versions at 8x8 and compare the main-phase behaviour."""
    tasks = [
        SweepTask(
            key=f"version={version}",
            config=paper_config(ranks, version, **overrides),
            reducer="repro.experiments.fig7:reduce_fig7",
            trace=True,
        )
        for version in ("original", "ompss_perfft")
    ]
    summaries = sweep_summaries(tasks, jobs=jobs)
    stats = {
        version: summaries[f"version={version}"]
        for version in ("original", "ompss_perfft")
    }
    anchors = PAPER["fig7"]
    rows = [
        ("main-phase IPC (original)", stats["original"]["mean_ipc"], anchors["main_phase_ipc_original"]),
        ("main-phase IPC (OmpSs)", stats["ompss_perfft"]["mean_ipc"], anchors["main_phase_ipc_ompss"]),
    ]
    lines = [
        format_comparison(rows, title="Fig. 7 — de-synchronization of the main compute phase (8x8)"),
        "",
        f"IPC spread (std): original {stats['original']['ipc_std']:.3f} -> "
        f"OmpSs {stats['ompss_perfft']['ipc_std']:.3f} (paper: 'much more scattered')",
        f"synchrony index:  original {stats['original']['synchrony']:.2f} -> "
        f"OmpSs {stats['ompss_perfft']['synchrony']:.2f} (paper: synchronized blocks -> asynchronous)",
    ]
    for version, title in (("original", "original"), ("ompss_perfft", "OmpSs   ")):
        eff = stats[version].get("efficiency")
        if eff:
            lines.append(
                f"POP factors ({title}): parallel {eff['parallel_efficiency']:.3f} = "
                f"LB {eff['load_balance']:.3f} x ser {eff['serialization_efficiency']:.3f}"
                f" x xfer {eff['transfer_efficiency']:.3f}"
            )
    return ExperimentReport(
        name="fig7",
        data=stats,
        text="\n".join(lines),
    )
