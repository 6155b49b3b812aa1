"""Timeline and histogram extraction (the Paraver views of Figs. 3 and 7).

These functions turn a :class:`~repro.telemetry.trace.Trace` into the data
behind the paper's figures:

* :func:`phase_intervals` — the compute-phase timeline (stream, phase,
  begin, end, IPC): Fig. 3's "useful duration" and IPC views, Fig. 7's
  left panels;
* :func:`mpi_intervals` — the MPI-call timeline: Fig. 3's MPI view;
* :func:`communicator_structure` — which sub-communicators exist and who
  belongs to them: Fig. 3's communicator view (R pack groups of T
  neighboring ranks; T scatter groups of R strided ranks);
* :func:`ipc_histogram` — per-stream distribution of compute time over IPC
  bins: Fig. 7's right panels;
* :func:`phase_summary` — per-phase aggregate IPC/time (the "0.06 / 0.52 /
  0.77 IPC" numbers quoted in the analysis).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.telemetry.trace import Trace

if _t.TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = [
    "PhaseInterval",
    "MpiInterval",
    "phase_intervals",
    "mpi_intervals",
    "phase_summary",
    "ipc_histogram",
    "communicator_structure",
]


@dataclasses.dataclass(frozen=True)
class PhaseInterval:
    """One compute phase occurrence on one stream."""

    stream: tuple
    phase: str
    begin: float
    end: float
    ipc: float

    @property
    def duration(self) -> float:
        return self.end - self.begin


@dataclasses.dataclass(frozen=True)
class MpiInterval:
    """One MPI call occurrence on one stream."""

    stream: tuple
    call: str
    comm_name: str
    begin: float
    end: float
    bytes_sent: float

    @property
    def duration(self) -> float:
        return self.end - self.begin


def phase_intervals(trace: Trace, frequency_hz: float) -> list[PhaseInterval]:
    """All compute phases as timeline intervals (sorted by begin time)."""
    out = [
        PhaseInterval(
            stream=r.stream,
            phase=r.phase,
            begin=r.start,
            end=r.end,
            ipc=r.ipc(frequency_hz),
        )
        for r in trace.compute
    ]
    return sorted(out, key=lambda iv: (iv.begin, repr(iv.stream)))


def mpi_intervals(trace: Trace) -> list[MpiInterval]:
    """All MPI calls as timeline intervals (sorted by begin time)."""
    out = [
        MpiInterval(
            stream=r.stream,
            call=r.call,
            comm_name=r.comm_name,
            begin=r.t_begin,
            end=r.t_end,
            bytes_sent=r.bytes_sent,
        )
        for r in trace.mpi
    ]
    return sorted(out, key=lambda iv: (iv.begin, repr(iv.stream)))


def phase_summary(trace: Trace, frequency_hz: float) -> dict[str, dict[str, float]]:
    """Aggregate per phase kind: total time, instructions, mean IPC, count."""
    agg: dict[str, dict[str, float]] = {}
    for r in trace.compute:
        entry = agg.setdefault(
            r.phase, {"time": 0.0, "instructions": 0.0, "count": 0.0}
        )
        entry["time"] += r.duration
        entry["instructions"] += r.instructions
        entry["count"] += 1
    for entry in agg.values():
        entry["ipc"] = (
            entry["instructions"] / (entry["time"] * frequency_hz)
            if entry["time"] > 0
            else 0.0
        )
    return agg


def ipc_histogram(
    trace: Trace,
    frequency_hz: float,
    bins: int = 24,
    ipc_range: tuple[float, float] = (0.0, 1.6),
    phases: _t.Collection[str] | None = None,
) -> tuple[np.ndarray, np.ndarray, list]:
    """Fig. 7's histogram: compute time per (stream, IPC bin).

    Returns ``(hist, edges, streams)`` where ``hist[i, j]`` is the time
    stream ``streams[i]`` spent in phases whose average IPC falls in bin
    ``j``.  ``phases`` restricts to a subset (e.g. the main compute phase).
    """
    # The only numpy user here: ``render_timeline`` imports this module
    # from the numpy-free renderer.
    import numpy as np

    streams = trace.streams
    index = {s: i for i, s in enumerate(streams)}
    edges = np.linspace(ipc_range[0], ipc_range[1], bins + 1)
    hist = np.zeros((len(streams), bins))
    for r in trace.compute:
        if phases is not None and r.phase not in phases:
            continue
        ipc = r.ipc(frequency_hz)
        j = int(np.clip(np.searchsorted(edges, ipc, side="right") - 1, 0, bins - 1))
        hist[index[r.stream], j] += r.duration
    return hist, edges, streams


def communicator_structure(trace: Trace) -> dict[str, dict]:
    """Communicator usage summary (Fig. 3's bottom-right view).

    Returns ``{comm_name: {"streams": sorted ranks seen, "calls": count,
    "bytes": total}}`` from the MPI records.
    """
    out: dict[str, dict] = {}
    for r in trace.mpi:
        entry = out.setdefault(
            r.comm_name, {"streams": set(), "calls": 0, "bytes": 0.0}
        )
        entry["streams"].add(r.stream[0])
        entry["calls"] += 1
        entry["bytes"] += r.bytes_sent
    for entry in out.values():
        entry["streams"] = sorted(entry["streams"])
    return out
