"""Raw event records of one run (the Extrae analogue's storage).

:class:`Trace` holds every compute-phase record, MPI record and task record
a run produced, in completion order.  It is the run's one recorder: the
driver hands it to the CPU model, the MPI world and (through the world)
the task runtimes, which append each record on completion — the enabled
session's ``trace``, or the caller's ``run_fft_phase(..., trace=...)``.
The Paraver writer, the Chrome-trace exporter and the POP model are plain
readers of the same record store.

Unlike real instrumentation the records are exact and overhead free (the
paper quotes 0.6-2.2 % monitor overhead; a simulator pays none).
"""

from __future__ import annotations

import dataclasses
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cpu import ComputeRecord
    from repro.mpisim.world import MpiRecord
    from repro.ompss.task import TaskRecord

__all__ = ["Trace"]


@dataclasses.dataclass
class Trace:
    """All records of one run, in completion order."""

    compute: list["ComputeRecord"] = dataclasses.field(default_factory=list)
    mpi: list["MpiRecord"] = dataclasses.field(default_factory=list)
    tasks: list[tuple[int, "TaskRecord"]] = dataclasses.field(default_factory=list)

    @property
    def streams(self) -> list:
        """All streams that appear in compute or MPI records, sorted."""
        seen = {r.stream for r in self.compute} | {r.stream for r in self.mpi}
        return sorted(seen)

    @property
    def span(self) -> float:
        """Last record end time (the traced horizon)."""
        ends = [r.end for r in self.compute] + [r.t_end for r in self.mpi]
        return max(ends) if ends else 0.0

    def compute_of(self, stream) -> list["ComputeRecord"]:
        """Compute records of one stream, by start time."""
        return sorted(
            (r for r in self.compute if r.stream == stream), key=lambda r: r.start
        )

    def mpi_of(self, stream) -> list["MpiRecord"]:
        """MPI records of one stream, by begin time."""
        return sorted(
            (r for r in self.mpi if r.stream == stream), key=lambda r: r.t_begin
        )

