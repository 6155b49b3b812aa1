"""Shared plumbing for experiment runners."""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.config import RunConfig

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.driver import RunResult
    from repro.telemetry import Trace
    from repro.sweep.engine import SweepTask

__all__ = [
    "ExperimentReport",
    "paper_config",
    "reduce_timing",
    "reduce_efficiency",
    "sweep_summaries",
]


@dataclasses.dataclass
class ExperimentReport:
    """A rendered experiment: machine-readable data + printable text."""

    name: str
    data: dict
    text: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def paper_config(ranks: int, version: str = "original", **overrides: _t.Any) -> RunConfig:
    """The paper's workload (ecut 80 Ry, alat 20 Bohr, 128 bands, ntg 8).

    ``overrides`` may shrink the workload for quick runs; the benchmark
    harness always uses the full one.
    """
    params: dict[str, _t.Any] = dict(
        ecutwfc=80.0,
        alat=20.0,
        nbnd=128,
        taskgroups=8,
        ranks=ranks,
        version=version,
    )
    params.update(overrides)
    return RunConfig(**params)


def reduce_timing(
    task: "SweepTask",
    result: "RunResult",
    ideal: "RunResult | None",
    trace: "Trace | None",
) -> dict:
    """The workhorse sweep reduction: runtime + average IPC + failure flag."""
    return {
        "phase_time_s": result.phase_time,
        "average_ipc": result.average_ipc,
        "failed": result.failed,
    }


def reduce_efficiency(
    task: "SweepTask",
    result: "RunResult",
    ideal: "RunResult | None",
    trace: "Trace | None",
) -> dict:
    """Timing reduction plus the point's POP efficiency factors.

    Factors come from :func:`repro.analysis.analyze_run`: the full
    sync/transfer split when the point carried a trace or an ideal-network
    replay, the counters-only decomposition (load balance + communication
    efficiency, neutral transfer) otherwise.
    """
    from repro.analysis import analyze_run

    out = reduce_timing(task, result, ideal, trace)
    analysis = analyze_run(
        result, ideal_time_s=ideal.phase_time if ideal is not None else None
    )
    out["efficiency"] = analysis.pop.factors() if analysis.pop is not None else None
    return out


def sweep_summaries(
    tasks: _t.Sequence["SweepTask"], jobs: int = 1, mode: str | None = None
) -> dict[str, dict]:
    """Run a grid through the sweep engine; point key -> reduced summary.

    Every experiment runner funnels its configurations through here, so one
    ``jobs=`` argument parallelizes any of them.
    """
    from repro.sweep import run_sweep

    return run_sweep(tasks, jobs=jobs, mode=mode).summaries()
