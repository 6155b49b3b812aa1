"""Table II: POP factors for the OmpSs per-FFT version.

"Executions with 1-16 ranks with 8 OmpSs tasks each" — N MPI ranks whose 8
threads replace the FFT task groups (ntg = 1).
"""

from __future__ import annotations

import typing as _t

from repro.experiments.common import ExperimentReport
from repro.experiments.paperdata import PAPER
from repro.experiments.table1 import factor_columns
from repro.perf.report import format_factor_table

__all__ = ["run_table2"]


def run_table2(
    ranks: _t.Sequence[int] = (1, 2, 4, 8, 16), jobs: int = 1, **overrides: _t.Any
) -> ExperimentReport:
    """Reproduce Table II (OmpSs per-FFT version)."""
    columns, runtimes = factor_columns("ompss_perfft", ranks, jobs=jobs, **overrides)
    reference = PAPER["table2"] if tuple(f"{n}x8" for n in ranks) == PAPER["config_labels"] else None
    text = format_factor_table(
        columns,
        title="Table II — efficiency and scalability factors, OmpSs per-FFT version",
        reference=reference,
    )
    return ExperimentReport(
        name="table2",
        data={
            "columns": dict(columns),
            "runtime_s": runtimes,
        },
        text=text,
    )
