"""Perfetto / Chrome-trace JSON export (``chrome://tracing`` loadable).

One JSON object with a ``traceEvents`` array in the Trace Event Format:

* metadata events name the process ("simulated KNL node") and one thread
  (track) per hardware thread stream, plus a ``driver`` track for run-level
  spans;
* complete events (``ph: "X"``) for every compute phase, MPI call, OmpSs
  task and recorded span — tracks nest them by time containment, giving the
  run -> executor -> iteration -> task -> phase hierarchy directly in the UI;
* flow events (``ph: "s"``/``"t"``/``"f"``) stitch the participants of each
  MPI operation across tracks: all members of one collective share one flow;
* counter events (``ph: "C"``) expose the per-rank task-queue depth when the
  OmpSs runtime recorded samples.

Timestamps are microseconds of simulated time, as the format expects.
"""

from __future__ import annotations

import json
import pathlib
import typing as _t

from repro.telemetry.spans import SpanLog
from repro.telemetry.trace import Trace

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.world import MpiRecord
    from repro.telemetry import Telemetry

__all__ = ["chrome_trace_events", "write_chrome_trace"]

_US = 1e6
_PID = 1
_DRIVER_TID = 1  # stream tids start at 2


def _tids(trace: Trace, spans: SpanLog) -> dict:
    """Stable tid per track: streams first (sorted), then logical tracks."""
    streams = set(trace.streams)
    for rank, rec in trace.tasks:
        if rec.worker_index is not None:
            streams.add((rank, rec.worker_index))
    for t in spans.tracks():
        if isinstance(t, tuple):
            streams.add(t)
    extra = [t for t in spans.tracks() if not isinstance(t, tuple)]
    tids: dict = {}
    tid = _DRIVER_TID + 1
    for s in sorted(streams):
        tids[s] = tid
        tid += 1
    for t in sorted(extra, key=repr):
        if t == "driver":
            tids[t] = _DRIVER_TID
        else:
            tids[t] = tid
            tid += 1
    tids.setdefault("driver", _DRIVER_TID)
    return tids


def _collective_flows(mpi: _t.Sequence["MpiRecord"]) -> list[list["MpiRecord"]]:
    """Group collective records into per-operation participant sets.

    Members of one collective complete together (the simulator releases
    them at the operation's finish time), so (communicator, call, end time)
    identifies the operation.
    """
    groups: dict[tuple, list] = {}
    for r in mpi:
        groups.setdefault((r.comm_id, r.call, round(r.t_end, 12)), []).append(r)
    return [g for g in groups.values() if len(g) > 1]


def chrome_trace_events(
    trace: Trace,
    spans: SpanLog | None = None,
    frequency_hz: float | None = None,
    queue_depth_samples: _t.Sequence[tuple[float, int, int]] = (),
) -> list[dict]:
    """Build the ``traceEvents`` list for one run.

    ``queue_depth_samples`` are ``(time, rank, depth)`` triples for the
    counter track.  ``frequency_hz`` adds per-slice IPC to compute events.
    """
    spans = spans if spans is not None else SpanLog(enabled=False)
    tids = _tids(trace, spans)
    events: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "simulated KNL node"},
        }
    ]
    for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        if isinstance(track, tuple):
            label = f"rank {track[0]} / hw thread {track[1]}"
        else:
            label = str(track)
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _PID,
                "tid": tid,
                "args": {"name": label},
            }
        )
        events.append(
            {"ph": "M", "name": "thread_sort_index", "pid": _PID, "tid": tid,
             "args": {"sort_index": tid}}
        )

    def x_event(tid: int, name: str, cat: str, begin: float, end: float, args: dict) -> dict:
        return {
            "ph": "X",
            "pid": _PID,
            "tid": tid,
            "name": name,
            "cat": cat,
            "ts": begin * _US,
            "dur": max(end - begin, 0.0) * _US,
            "args": args,
        }

    for span in spans.closed():
        events.append(
            x_event(
                tids[span.track],
                span.name,
                span.category,
                span.t_begin,
                span.t_end,  # type: ignore[arg-type]
                dict(span.args),
            )
        )

    for r in trace.compute:
        args: dict = {"instructions": r.instructions}
        if frequency_hz:
            args["ipc"] = round(r.ipc(frequency_hz), 4)
        events.append(x_event(tids[r.stream], r.phase, "compute", r.start, r.end, args))

    for r in trace.mpi:
        events.append(
            x_event(
                tids[r.stream],
                f"MPI_{r.call}",
                "mpi",
                r.t_begin,
                r.t_end,
                {
                    "comm": r.comm_name,
                    "bytes": r.bytes_sent,
                    "sync_time_us": r.sync_time * _US,
                },
            )
        )

    for rank, rec in trace.tasks:
        if rec.started_at is None or rec.finished_at is None or rec.worker_index is None:
            continue
        events.append(
            x_event(
                tids[(rank, rec.worker_index)],
                f"task {rec.name}",
                "task",
                rec.started_at,
                rec.finished_at,
                {"tid": rec.tid, "created_at_us": rec.created_at * _US},
            )
        )

    # MPI flow events: one flow per collective operation.
    flow_id = 0

    def flow(ph: str, r: "MpiRecord", fid: int) -> dict:
        # Bind to the middle of the slice so the arrow attaches to it.
        ts = (r.t_begin + r.t_end) / 2.0 * _US
        ev = {
            "ph": ph,
            "pid": _PID,
            "tid": tids[r.stream],
            "name": f"mpi:{r.call}",
            "cat": "mpi-flow",
            "id": fid,
            "ts": ts,
        }
        if ph == "f":
            ev["bp"] = "e"
        return ev

    for group in _collective_flows(trace.mpi):
        members = sorted(group, key=lambda r: (r.t_begin, repr(r.stream)))
        events.append(flow("s", members[0], flow_id))
        for r in members[1:-1]:
            events.append(flow("t", r, flow_id))
        events.append(flow("f", members[-1], flow_id))
        flow_id += 1

    for t, rank, depth in queue_depth_samples:
        events.append(
            {
                "ph": "C",
                "pid": _PID,
                "tid": _DRIVER_TID,
                "name": f"task queue rank {rank}",
                "ts": t * _US,
                "args": {"depth": depth},
            }
        )

    events.sort(key=lambda e: (e.get("ts", -1.0), e["ph"] != "M"))
    return events


def write_chrome_trace(
    path: str | pathlib.Path,
    trace: Trace,
    spans: SpanLog | None = None,
    frequency_hz: float | None = None,
    queue_depth_samples: _t.Sequence[tuple[float, int, int]] = (),
    label: str = "fftxlib",
) -> pathlib.Path:
    """Write the run as ``<path>`` (``.json`` appended if no suffix)."""
    path = pathlib.Path(path)
    if not path.suffix:
        path = path.with_suffix(".json")
    doc = {
        "traceEvents": chrome_trace_events(
            trace, spans, frequency_hz, queue_depth_samples
        ),
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.telemetry", "label": label},
    }
    path.write_text(json.dumps(doc, indent=None, separators=(",", ":")) + "\n")
    return path
