"""Tables I and II: POP efficiency/scalability factors per version.

Table I runs the original version with 1-16 ranks x 8 FFT task groups (32x8
is excluded in the paper because "it does not provide any additional
benefit or information over 16x8"); Table II runs the OmpSs per-FFT version,
"executions with 1-16 ranks with 8 OmpSs tasks each" — N MPI ranks whose 8
threads replace the FFT task groups (ntg = 1).  Each column needs two runs:
the measured one and the ideal-network replay identifying the
sync/transfer split.

The rank sweep runs through :mod:`repro.sweep`: each point executes the
measured + ideal pair in a worker and reduces to its
:class:`~repro.analysis.pop.PopDecomposition` plus compute totals; the factor
columns are then laid out here in the parent, because every column's
scalability factors are relative to the *first* point's totals (the base run).
"""

from __future__ import annotations

import typing as _t

from repro.analysis import PopDecomposition, analyze_run, compute_totals, factor_rows
from repro.experiments.common import ExperimentReport, paper_config, sweep_summaries
from repro.experiments.paperdata import PAPER
from repro.analysis.render import format_factor_table
from repro.sweep import SweepTask

__all__ = ["run_table1", "run_table2", "factor_columns", "reduce_pop"]


def reduce_pop(task, result, ideal, trace) -> dict:
    """Sweep reduction for a POP column: the replay-split decomposition + totals."""
    pop = analyze_run(
        result, ideal_time_s=ideal.phase_time if ideal is not None else None
    ).pop
    if pop is None:
        raise ValueError("run has no computation to analyse")
    return {"pop": pop.to_dict(), "totals": compute_totals(result.cpu.counters)}


def factor_columns(
    version: str,
    ranks: _t.Sequence[int],
    jobs: int = 1,
    **overrides: _t.Any,
) -> tuple[list, dict]:
    """Measured factor columns for one executor version over a rank sweep."""
    tasks = [
        SweepTask(
            key=f"ranks={n}",
            config=paper_config(n, version, **overrides),
            reducer="repro.experiments.table1:reduce_pop",
            ideal_replay=True,
        )
        for n in ranks
    ]
    summaries = sweep_summaries(tasks, jobs=jobs)

    columns = []
    base = summaries[f"ranks={ranks[0]}"]["totals"]
    runtimes = {}
    for n in ranks:
        summary = summaries[f"ranks={n}"]
        pop = PopDecomposition.from_dict(summary["pop"])
        label = f"{n}x8"
        columns.append((label, factor_rows(pop, summary["totals"], base)))
        runtimes[label] = pop.makespan_s
    return columns, runtimes


def _run_table(
    name: str, version: str, title: str, ranks: _t.Sequence[int], jobs: int,
    overrides: dict,
) -> ExperimentReport:
    """One POP factor table: ``version``'s columns over ``ranks``, with the
    paper's ``PAPER[name]`` reference when the ranks are the paper's."""
    columns, runtimes = factor_columns(version, ranks, jobs=jobs, **overrides)
    reference = PAPER[name] if tuple(f"{n}x8" for n in ranks) == PAPER["config_labels"] else None
    text = format_factor_table(columns, title=title, reference=reference)
    return ExperimentReport(
        name=name,
        data={
            "columns": dict(columns),
            "runtime_s": runtimes,
        },
        text=text,
    )


def run_table1(
    ranks: _t.Sequence[int] = (1, 2, 4, 8, 16), jobs: int = 1, **overrides: _t.Any
) -> ExperimentReport:
    """Reproduce Table I (original version)."""
    return _run_table(
        "table1", "original",
        "Table I — efficiency and scalability factors, original version",
        ranks, jobs, overrides,
    )


def run_table2(
    ranks: _t.Sequence[int] = (1, 2, 4, 8, 16), jobs: int = 1, **overrides: _t.Any
) -> ExperimentReport:
    """Reproduce Table II (OmpSs per-FFT version)."""
    return _run_table(
        "table2", "ompss_perfft",
        "Table II — efficiency and scalability factors, OmpSs per-FFT version",
        ranks, jobs, overrides,
    )
