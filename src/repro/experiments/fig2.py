"""Figure 2: FFT-phase runtime of the original version vs. MPI ranks.

"The FFT phase does not scale very well with an increasing number of MPI
ranks and there is no benefit from using the hyper-threading; in fact the
runtime is increased again."  Configurations 1x8 .. 32x8; 16x8 and 32x8 use
2 and 4 hyper-threads per core.  The rank axis runs through the sweep
engine, so ``jobs=N`` executes the configurations concurrently.
"""

from __future__ import annotations

import typing as _t

from repro.experiments.common import ExperimentReport, paper_config, sweep_summaries
from repro.analysis.render import format_series
from repro.sweep import SweepTask

__all__ = ["run_fig2"]

TIMING_REDUCER = "repro.experiments.common:reduce_timing"


def run_fig2(
    ranks: _t.Sequence[int] = (1, 2, 4, 8, 16, 32), jobs: int = 1, **overrides: _t.Any
) -> ExperimentReport:
    """Run the Fig. 2 sweep; returns the runtime series."""
    tasks = [
        SweepTask(
            key=f"ranks={n}",
            config=paper_config(n, "original", **overrides),
            reducer=TIMING_REDUCER,
        )
        for n in ranks
    ]
    summaries = sweep_summaries(tasks, jobs=jobs)
    series = []
    ipcs = []
    for n in ranks:
        summary = summaries[f"ranks={n}"]
        label = f"{n}x8"
        series.append((label, summary["phase_time_s"]))
        ipcs.append((label, summary["average_ipc"]))

    best = min(series, key=lambda kv: kv[1])
    lines = [
        format_series(series, title="Fig. 2 — FFT phase runtime, original version"),
        "",
        f"best configuration: {best[0]} ({best[1] * 1e3:.2f} ms)",
        "paper claim: poor scaling; hyper-threaded entries (16x8, 32x8) do not improve",
    ]
    return ExperimentReport(
        name="fig2",
        data={"runtime_s": dict(series), "avg_ipc": dict(ipcs), "best": best[0]},
        text="\n".join(lines),
    )
