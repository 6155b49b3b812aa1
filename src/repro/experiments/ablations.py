"""Ablations: the design knobs DESIGN.md calls out.

* ``run_ablation_ntg`` — §II.A's discussion of the task-group knob: ntg=1
  shifts all communication cost into the scatter (involving all processes),
  ntg=P shifts it into pack/unpack; "all the options between these two
  extreme cases should be benchmarked."
* ``run_ablation_grainsize`` — the taskloop grainsizes of Opt 1 (paper
  uses 10 for the xy loops and 200 for the z loops).
* ``run_ablation_hyperthreading`` — 1/2/4 hyper-threads for both versions
  (the tails of Figs. 2/6).
* ``run_ablation_scheduler`` — Nanos++ ready-queue policies for Opt 2.
* ``run_ablation_versions`` — baseline vs. Opt 1 vs. Opt 2 vs. the §VI
  combined version.

Every sweep here declares its grid through :mod:`repro.sweep`; pass
``jobs=N`` to run the points concurrently.
"""

from __future__ import annotations

import typing as _t

from repro.experiments.common import ExperimentReport, paper_config, sweep_summaries
from repro.analysis.render import format_series
from repro.sweep import SweepTask

__all__ = [
    "run_ablation_ntg",
    "run_ablation_grainsize",
    "run_ablation_hyperthreading",
    "run_ablation_scheduler",
    "run_ablation_versions",
]

TIMING_REDUCER = "repro.experiments.common:reduce_timing"


def reduce_ntg(task, result, ideal, trace) -> dict:
    """Runtime plus the pack/scatter MPI-time split from the trace."""
    return {
        "phase_time_s": result.phase_time,
        "pack_s": sum(r.duration for r in trace.mpi if r.comm_name.startswith("pack")),
        "scatter_s": sum(
            r.duration for r in trace.mpi if r.comm_name.startswith("scatter")
        ),
    }


def run_ablation_ntg(
    total_procs: int = 64,
    ntgs: _t.Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    jobs: int = 1,
    **overrides: _t.Any,
) -> ExperimentReport:
    """Sweep the task-group count at a fixed process count (original version)."""
    valid_ntgs = [ntg for ntg in ntgs if not total_procs % ntg]
    tasks = [
        SweepTask(
            key=f"ntg={ntg}",
            config=paper_config(
                total_procs // ntg, "original", taskgroups=ntg, **overrides
            ),
            reducer="repro.experiments.ablations:reduce_ntg",
            trace=True,
        )
        for ntg in valid_ntgs
    ]
    summaries = sweep_summaries(tasks, jobs=jobs)
    series = []
    comm_split = {}
    for ntg in valid_ntgs:
        label = f"ntg={ntg}"
        summary = summaries[label]
        series.append((label, summary["phase_time_s"]))
        comm_split[label] = {
            "pack_s": summary["pack_s"],
            "scatter_s": summary["scatter_s"],
        }

    lines = [
        format_series(series, title=f"ntg sweep at {total_procs} processes (original)"),
        "",
        "MPI time split (accumulated over ranks):",
    ]
    for label, split in comm_split.items():
        lines.append(
            f"  {label:<8} pack {split['pack_s'] * 1e3:8.2f} ms   "
            f"scatter {split['scatter_s'] * 1e3:8.2f} ms"
        )
    lines.append(
        "paper (II.A): ntg=1 -> all cost in the scatter; ntg=P -> all cost in pack/unpack"
    )
    return ExperimentReport(
        name="ablation-ntg",
        data={"runtime_s": dict(series), "comm_split": comm_split},
        text="\n".join(lines),
    )


def run_ablation_grainsize(
    ranks: int = 8,
    grains: _t.Sequence[tuple[int, int]] = ((1, 10), (10, 200), (50, 500), (1000, 10000)),
    jobs: int = 1,
    **overrides: _t.Any,
) -> ExperimentReport:
    """Sweep the Opt 1 taskloop grainsizes (xy, z); paper uses (10, 200)."""
    tasks = [
        SweepTask(
            key=f"xy={gxy},z={gz}",
            config=paper_config(
                ranks, "ompss_steps", grainsize_xy=gxy, grainsize_z=gz, **overrides
            ),
            reducer=TIMING_REDUCER,
        )
        for gxy, gz in grains
    ]
    summaries = sweep_summaries(tasks, jobs=jobs)
    series = [
        (f"xy={gxy},z={gz}", summaries[f"xy={gxy},z={gz}"]["phase_time_s"])
        for gxy, gz in grains
    ]
    lines = [
        format_series(series, title=f"Opt 1 taskloop grainsize sweep ({ranks}x8)"),
        "paper: grainsize 10 (xy) and 200 (z); too-fine grains pay dispatch overhead,",
        "too-coarse grains lose worker parallelism.",
    ]
    return ExperimentReport(
        name="ablation-grainsize",
        data={"runtime_s": dict(series)},
        text="\n".join(lines),
    )


def run_ablation_hyperthreading(jobs: int = 1, **overrides: _t.Any) -> ExperimentReport:
    """1/2/4 hyper-threads per core for both versions (8/16/32 ranks x 8)."""
    points = [
        (version, n, ht)
        for version in ("original", "ompss_perfft")
        for n, ht in ((8, 1), (16, 2), (32, 4))
    ]
    tasks = [
        SweepTask(
            key=f"version={version},ht={ht}",
            config=paper_config(n, version, **overrides),
            reducer=TIMING_REDUCER,
        )
        for version, n, ht in points
    ]
    summaries = sweep_summaries(tasks, jobs=jobs)
    rows = {
        (version, ht): summaries[f"version={version},ht={ht}"]["phase_time_s"]
        for version, _n, ht in points
    }
    series = [
        (f"{v} {ht}xHT", t) for (v, ht), t in rows.items()
    ]
    orig_delta = rows[("original", 2)] / rows[("original", 1)] - 1.0
    ompss_delta = rows[("ompss_perfft", 2)] / rows[("ompss_perfft", 1)] - 1.0
    lines = [
        format_series(series, title="Hyper-threading ablation (full node)"),
        "",
        f"2xHT runtime change: original {orig_delta * +100:+.1f}%, OmpSs {ompss_delta * 100:+.1f}%",
        "paper: original gains nothing (runtime increases); OmpSs gains ~3%",
    ]
    return ExperimentReport(
        name="ablation-ht",
        data={"runtime_s": {f"{v}-{ht}ht": t for (v, ht), t in rows.items()}},
        text="\n".join(lines),
    )


def run_ablation_scheduler(
    ranks: int = 8,
    policies: _t.Sequence[str] = ("fifo", "lifo", "priority", "locality", "wsteal"),
    jobs: int = 1,
    **overrides: _t.Any,
) -> ExperimentReport:
    """Ready-queue policy sweep for the per-FFT version."""
    tasks = [
        SweepTask(
            key=f"scheduler={policy}",
            config=paper_config(ranks, "ompss_perfft", scheduler=policy, **overrides),
            reducer=TIMING_REDUCER,
        )
        for policy in policies
    ]
    summaries = sweep_summaries(tasks, jobs=jobs)
    series = [
        (policy, summaries[f"scheduler={policy}"]["phase_time_s"]) for policy in policies
    ]
    lines = [
        format_series(series, title=f"Scheduler policy sweep, per-FFT tasks ({ranks}x8)"),
        "FIFO keeps all ranks on overlapping band windows, so keyed scatters pair",
        "promptly; depth-first orders delay cross-rank matching.",
    ]
    return ExperimentReport(
        name="ablation-scheduler",
        data={"runtime_s": dict(series)},
        text="\n".join(lines),
    )


def run_ablation_versions(
    ranks: int = 8, jobs: int = 1, **overrides: _t.Any
) -> ExperimentReport:
    """All four executors at the same node occupancy."""
    versions = ("original", "pipelined", "ompss_steps", "ompss_perfft", "ompss_combined")
    tasks = [
        SweepTask(
            key=f"version={version}",
            config=paper_config(ranks, version, **overrides),
            reducer=TIMING_REDUCER,
        )
        for version in versions
    ]
    summaries = sweep_summaries(tasks, jobs=jobs)
    series = []
    ipcs = {}
    for version in versions:
        summary = summaries[f"version={version}"]
        series.append((version, summary["phase_time_s"]))
        ipcs[version] = summary["average_ipc"]
    lines = [
        format_series(series, title=f"Executor comparison ({ranks}x8 workload)"),
        "",
        "average compute IPC: "
        + ", ".join(f"{v}: {i:.3f}" for v, i in ipcs.items()),
        "paper §IV: Opt 1 targets communication-dominated scales, Opt 2 targets",
        "compute-dominated scales (and is the one evaluated on KNL); §VI proposes",
        "combining them.",
    ]
    return ExperimentReport(
        name="ablation-versions",
        data={"runtime_s": dict(series), "avg_ipc": ipcs},
        text="\n".join(lines),
    )
