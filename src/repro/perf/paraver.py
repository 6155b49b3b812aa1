"""Paraver-style trace files (.prv with .pcf/.row sidecars).

The BSC tools store traces as plain-text records; this module writes the
subset the reproduction needs and reads it back:

* header — ``#Paraver (<date>):<duration>_ns:<nodes>(<cpus>):...``
* state records — ``1:cpu:appl:task:thread:begin:end:state`` (compute
  phases and MPI calls, coded via the tables below);
* event records — ``2:cpu:appl:task:thread:time:type:value`` (instruction
  counts at phase end, MPI call ids at call begin/end).

Collectives are not decomposed into messages, so the writer emits no
communication records (``3:...``); the reader still parses them.

The ``.pcf`` sidecar carries the state/event legends (as Paraver expects)
and the ``.row`` sidecar the stream labels.

Times are written in integer nanoseconds.
"""

from __future__ import annotations

import pathlib
import typing as _t

from repro.telemetry.trace import Trace

__all__ = ["write_prv", "read_prv", "STATE_CODES", "MPI_CALL_CODES"]

#: Paraver state ids for the compute phases.
STATE_CODES: dict[str, int] = {
    "idle": 0,
    "prepare_psis": 2,
    "pack_sticks": 3,
    "fft_z": 4,
    "scatter_reorder": 5,
    "fft_xy": 6,
    "vofr": 7,
    "unpack_sticks": 8,
}

#: Paraver state ids for MPI calls (offset block, as Extrae does).
MPI_CALL_CODES: dict[str, int] = {
    "alltoall": 20,
    "alltoallw": 32,
}

#: Event type for useful instructions (PAPI_TOT_INS's conventional id).
EV_INSTRUCTIONS = 42000050
#: Event type for MPI call begin/end (Extrae's MPI event block).
EV_MPI_CALL = 50000001

_NS = 1e9


def _stream_ids(streams: _t.Sequence) -> dict:
    """Map a stream to (cpu, task, thread), all 1-based."""
    ids = {}
    for i, stream in enumerate(sorted(streams)):
        rank, thread = stream
        ids[stream] = (i + 1, rank + 1, thread + 1)
    return ids


def write_prv(path: str | pathlib.Path, trace: Trace, label: str = "fftxlib") -> pathlib.Path:
    """Write ``<path>.prv`` (+ ``.pcf``, ``.row``); returns the .prv path."""
    path = pathlib.Path(path)
    prv = path.with_suffix(".prv")
    streams = trace.streams
    ids = _stream_ids(streams)
    duration_ns = int(round(trace.span * _NS))
    n_tasks = len({s[0] for s in streams})
    max_threads = max((s[1] + 1 for s in streams), default=1)

    lines = [
        f"#Paraver (01/01/2026 at 00:00):{duration_ns}_ns:1({len(streams)}):1:"
        f"1({n_tasks}:{max_threads})"
    ]
    records: list[tuple[float, str]] = []
    for r in trace.compute:
        cpu, task, thread = ids[r.stream]
        b, e = int(round(r.start * _NS)), int(round(r.end * _NS))
        code = STATE_CODES.get(r.phase)
        if code is None:
            raise ValueError(f"phase {r.phase!r} has no Paraver state code")
        records.append((r.start, f"1:{cpu}:1:{task}:{thread}:{b}:{e}:{code}"))
        records.append(
            (r.end, f"2:{cpu}:1:{task}:{thread}:{e}:{EV_INSTRUCTIONS}:{int(r.instructions)}")
        )
    for r in trace.mpi:
        cpu, task, thread = ids[r.stream]
        b, e = int(round(r.t_begin * _NS)), int(round(r.t_end * _NS))
        code = MPI_CALL_CODES.get(r.call)
        if code is None:
            raise ValueError(f"MPI call {r.call!r} has no Paraver state code")
        records.append((r.t_begin, f"1:{cpu}:1:{task}:{thread}:{b}:{e}:{code}"))
        records.append((r.t_begin, f"2:{cpu}:1:{task}:{thread}:{b}:{EV_MPI_CALL}:{code}"))
        records.append((r.t_end, f"2:{cpu}:1:{task}:{thread}:{e}:{EV_MPI_CALL}:0"))
    records.sort(key=lambda t: t[0])
    lines.extend(rec for _t0, rec in records)
    prv.write_text("\n".join(lines) + "\n")

    pcf_lines = ["DEFAULT_OPTIONS", "", "STATES"]
    for name, code in sorted(STATE_CODES.items(), key=lambda kv: kv[1]):
        pcf_lines.append(f"{code}    {name}")
    for name, code in sorted(MPI_CALL_CODES.items(), key=lambda kv: kv[1]):
        pcf_lines.append(f"{code}    MPI_{name}")
    pcf_lines += [
        "",
        "EVENT_TYPE",
        f"0    {EV_INSTRUCTIONS}    Useful instructions",
        f"0    {EV_MPI_CALL}    MPI call (0 = outside)",
    ]
    prv.with_suffix(".pcf").write_text("\n".join(pcf_lines) + "\n")

    row_lines = [f"LEVEL CPU SIZE {len(streams)}"]
    row_lines += [f"{label}.rank{s[0]}.thread{s[1]}" for s in sorted(streams)]
    prv.with_suffix(".row").write_text("\n".join(row_lines) + "\n")
    return prv


def read_prv(path: str | pathlib.Path) -> dict:
    """Parse a Paraver ``.prv`` trace (state, event and communication records).

    Returns ``{"duration_ns": int, "states": [...], "events": [...],
    "comms": [...]}`` where states are ``(cpu, task, thread, begin_ns,
    end_ns, state)``, events ``(cpu, task, thread, time_ns, type, value)``
    and comms ``(cpu_s, task_s, thread_s, lsend_ns, psend_ns, cpu_r,
    task_r, thread_r, lrecv_ns, precv_ns, size, tag)`` (all ints).
    """
    path = pathlib.Path(path)
    states, events, comms = [], [], []
    duration_ns = 0
    with path.open() as fh:
        header = fh.readline().strip()
        if not header.startswith("#Paraver"):
            raise ValueError(f"{path} is not a Paraver trace (bad header)")
        # The date field contains colons; the duration follows the first "):".
        after_date = header.split("):", 1)[1]
        duration_ns = int(after_date.split(":", 1)[0].replace("_ns", ""))
        for line in fh:
            line = line.strip()
            if not line:
                continue
            fields = line.split(":")
            kind = fields[0]
            if kind == "1":
                _k, cpu, _appl, task, thread, begin, end, state = fields
                states.append(
                    (int(cpu), int(task), int(thread), int(begin), int(end), int(state))
                )
            elif kind == "2":
                _k, cpu, _appl, task, thread, time, etype, value = fields
                events.append(
                    (int(cpu), int(task), int(thread), int(time), int(etype), int(value))
                )
            elif kind == "3":
                (
                    _k,
                    cpu_s, _appl_s, task_s, thread_s, lsend, psend,
                    cpu_r, _appl_r, task_r, thread_r, lrecv, precv,
                    size, tag,
                ) = fields
                comms.append(
                    (
                        int(cpu_s), int(task_s), int(thread_s), int(lsend), int(psend),
                        int(cpu_r), int(task_r), int(thread_r), int(lrecv), int(precv),
                        int(size), int(tag),
                    )
                )
            else:
                raise ValueError(f"unsupported record kind {kind!r} in {path}")
    return {
        "duration_ns": duration_ns,
        "states": states,
        "events": events,
        "comms": comms,
    }
