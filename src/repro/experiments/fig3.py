"""Figure 3: the trace view of the original version's FFT phase.

The paper zooms into one of the "8 repeating phases" of the 8x8 run and
reads off: (a) the phase structure with its IPCs (Psi preparation ~0.06,
FFT-Z ~0.52, the central FFT-XY/VOFR block ~0.77), (b) the MPI call
pattern (Alltoallv in pack/unpack, Alltoall in the scatters), and (c) the
two-layer communicator structure (R pack sub-communicators of T neighboring
ranks; T scatter sub-communicators of R strided ranks).  This runner
regenerates all three from a traced run executed through the sweep engine
(a one-point grid; the trace reduction happens in the worker).
"""

from __future__ import annotations

import typing as _t

from repro.experiments.common import ExperimentReport, paper_config, sweep_summaries
from repro.experiments.paperdata import PAPER
from repro.machine import knl_parameters
from repro.analysis.render import format_comparison
from repro.sweep import SweepTask

__all__ = ["run_fig3", "reduce_fig3"]


def reduce_fig3(task, result, ideal, trace) -> dict:
    """In-worker reduction of the traced run to the Fig. 3 artifacts."""
    from repro.analysis.timeline import communicator_structure, phase_summary

    freq = knl_parameters().frequency_hz
    summary = phase_summary(trace, freq)
    # The paper's "central phase" groups fw-XY + inner loop (VOFR) + bw-XY.
    central = {k: summary[k] for k in ("fft_xy", "vofr") if k in summary}
    central_time = sum(v["time"] for v in central.values())
    central_instr = sum(v["instructions"] for v in central.values())
    central_ipc = central_instr / (central_time * freq) if central_time else 0.0

    comms = communicator_structure(trace)
    # "8 repeating phases": one prepare_psis per stream per outer iteration.
    stream0 = trace.streams[0]
    repeats = sum(
        1 for r in trace.compute if r.stream == stream0 and r.phase == "prepare_psis"
    )
    return {
        "phase_summary": summary,
        "central_phase_ipc": central_ipc,
        "pack_comms": {k: v for k, v in comms.items() if k.startswith("pack")},
        "scatter_comms": {k: v for k, v in comms.items() if k.startswith("scatter")},
        "repeating_phases": repeats,
        "phase_time": result.phase_time,
    }


def run_fig3(ranks: int = 8, jobs: int = 1, **overrides: _t.Any) -> ExperimentReport:
    """Trace the 8x8 original run and extract the Fig. 3 artifacts."""
    task = SweepTask(
        key=f"ranks={ranks}",
        config=paper_config(ranks, "original", **overrides),
        reducer="repro.experiments.fig3:reduce_fig3",
        trace=True,
    )
    data = sweep_summaries([task], jobs=jobs)[task.key]
    summary = data["phase_summary"]
    pack_comms = data["pack_comms"]
    scatter_comms = data["scatter_comms"]

    anchors = PAPER["fig3"]
    rows = [
        ("prepare_psis IPC", summary["prepare_psis"]["ipc"], anchors["prepare_psis_ipc"]),
        ("fft_z IPC", summary["fft_z"]["ipc"], anchors["fft_z_ipc"]),
        ("central phase IPC", data["central_phase_ipc"], anchors["central_phase_ipc"]),
        ("pack sub-comms", len(pack_comms), anchors["pack_comms_of_8x8"]),
        ("pack comm size", len(pack_comms.get("pack0", {}).get("streams", [])), anchors["pack_comm_size_8x8"]),
        ("scatter sub-comms", len(scatter_comms), anchors["scatter_comms_of_8x8"]),
        ("scatter comm size", len(scatter_comms.get("scatter0", {}).get("streams", [])), anchors["scatter_comm_size_8x8"]),
        ("repeating phases", data["repeating_phases"], PAPER["workload"]["repeating_phases"]),
    ]
    lines = [
        format_comparison(rows, title="Fig. 3 — trace structure of the 8x8 original run"),
        "",
        f"pack0 members:    {pack_comms.get('pack0', {}).get('streams')}",
        f"scatter1 members: {scatter_comms.get('scatter1', {}).get('streams')} (strided by T)",
    ]
    return ExperimentReport(name="fig3", data=data, text="\n".join(lines))
