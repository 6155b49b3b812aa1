"""Critical-path extraction over traces and task graphs.

Two complementary views of "what made the run this long":

* :func:`critical_path_from_trace` walks the per-stream record timelines
  *backwards* from the makespan, hopping between streams at wait
  boundaries.  The result is a gap-free tiling of ``[0, makespan]`` into
  segments (compute / MPI wait / MPI transfer / dependency idle), so the
  path length equals the makespan **by construction** — the invariant the
  acceptance gate checks.  Attribution per resource (cpu vs network vs
  wait) falls out of the segment kinds.

* :func:`graph_critical_path` runs the classical CPM forward/backward
  pass over an explicit task DAG (the ompss dependency edges exported by
  the runtime), yielding the longest dependency chain, per-task slack and
  a slack histogram.  This answers "which *task kind* is critical", which
  the timeline walk cannot (it sees phases, not tasks).
"""

from __future__ import annotations

import bisect
import dataclasses
import operator
import typing as _t

from repro.telemetry.layers import comm_layer

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.trace import Trace

__all__ = [
    "PathSegment",
    "CriticalPath",
    "critical_path_from_trace",
    "GraphNode",
    "GraphCriticalPath",
    "graph_critical_path",
    "slack_histogram",
]

#: Segment kinds, in attribution order.
KIND_COMPUTE = "compute"
KIND_MPI_WAIT = "mpi_wait"
KIND_MPI_TRANSFER = "mpi_transfer"
KIND_IDLE = "idle"


@dataclasses.dataclass(frozen=True)
class PathSegment:
    """One contiguous stretch of the critical path on one stream."""

    stream: str
    kind: str  # compute | mpi_wait | mpi_transfer | idle
    label: str  # phase name, mpi "call@layer", or ""
    t_begin: float
    t_end: float

    @property
    def duration(self) -> float:
        return self.t_end - self.t_begin

    def to_dict(self) -> dict:
        return {
            "stream": self.stream,
            "kind": self.kind,
            "label": self.label,
            "t_begin": self.t_begin,
            "t_end": self.t_end,
            "duration_s": self.duration,
        }


@dataclasses.dataclass
class CriticalPath:
    """The extracted path plus its resource/label attribution."""

    makespan_s: float
    segments: list[PathSegment]

    @property
    def length_s(self) -> float:
        return sum(s.duration for s in self.segments)

    @property
    def by_kind(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.segments:
            out[s.kind] = out.get(s.kind, 0.0) + s.duration
        return out

    @property
    def by_label(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.segments:
            key = s.label or s.kind
            out[key] = out.get(key, 0.0) + s.duration
        return out

    def top_labels(self, k: int = 5) -> list[tuple[str, float]]:
        return sorted(self.by_label.items(), key=lambda kv: -kv[1])[:k]

    def to_dict(self, max_segments: int = 64) -> dict:
        merged = _merge_segments(self.segments)
        return {
            "makespan_s": self.makespan_s,
            "length_s": self.length_s,
            "n_segments": len(merged),
            "by_kind": {k: v for k, v in sorted(self.by_kind.items())},
            "by_label": {k: v for k, v in sorted(self.by_label.items())},
            "segments": [s.to_dict() for s in merged[:max_segments]],
        }


def _merge_segments(segments: list[PathSegment]) -> list[PathSegment]:
    """Coalesce adjacent segments with identical stream/kind/label."""
    out: list[PathSegment] = []
    for s in segments:
        if s.duration <= 0.0:
            continue
        if (
            out
            and out[-1].stream == s.stream
            and out[-1].kind == s.kind
            and out[-1].label == s.label
            and abs(out[-1].t_end - s.t_begin) < 1e-15
        ):
            out[-1] = dataclasses.replace(out[-1], t_end=s.t_end)
        else:
            out.append(s)
    return out


@dataclasses.dataclass(slots=True)
class _Rec:
    """Unified timeline record used by the backward walk.

    One per trace record, hence slotted and not frozen (a frozen dataclass
    pays ``object.__setattr__`` per field); the walk never mutates one.
    """

    stream: str
    kind: str  # compute | mpi
    label: str
    t_begin: float
    t_end: float
    sync_time: float  # mpi only; leading wait share of [t_begin, t_end]


def _records(trace: "Trace") -> list[_Rec]:
    name_of = {s: repr(s) for s in {r.stream for r in trace.compute + trace.mpi}}
    label_of = {
        (call, comm): f"{call}@{comm_layer(comm)}"
        for call, comm in {(r.call, r.comm_name) for r in trace.mpi}
    }
    return [
        _Rec(name_of[r.stream], "compute", r.phase, r.start, r.end, 0.0)
        for r in trace.compute
    ] + [
        _Rec(
            name_of[r.stream],
            "mpi",
            label_of[r.call, r.comm_name],
            r.t_begin,
            r.t_end,
            min(max(r.sync_time, 0.0), r.t_end - r.t_begin),
        )
        for r in trace.mpi
    ]


def _emit(rec: _Rec, lo: float, hi: float, out: list[PathSegment]) -> None:
    """Tile ``[lo, hi]`` of one record into path segments (reverse order)."""
    if hi - lo <= 0.0:
        return
    if rec.kind == "compute":
        out.append(PathSegment(rec.stream, KIND_COMPUTE, rec.label, lo, hi))
        return
    # MPI record: [t_begin, t_begin + sync) waits, the rest transfers.
    split = rec.t_begin + rec.sync_time
    if hi > split:
        out.append(
            PathSegment(rec.stream, KIND_MPI_TRANSFER, rec.label, max(lo, split), hi)
        )
    if lo < split:
        out.append(
            PathSegment(rec.stream, KIND_MPI_WAIT, rec.label, lo, min(hi, split))
        )


def critical_path_from_trace(
    trace: "Trace", makespan_s: float | None = None
) -> CriticalPath:
    """Backward walk from the makespan to time zero.

    At every point the walk stands on the record that *ends last no later
    than the cursor* — the activity the finish time was waiting on.  Where
    no record covers the cursor, the gap is attributed as ``mpi_wait``
    when the enclosing record is an MPI call still in flight, else as
    ``idle`` (dependency wait: the blocking activity ended earlier on
    another stream).  Segments tile ``[0, makespan]`` exactly, so
    ``length_s == makespan_s`` up to float rounding.
    """
    recs = _records(trace)
    if not recs:
        return CriticalPath(makespan_s=makespan_s or 0.0, segments=[])
    # Records sorted by end time for "latest end <= cursor" queries, and
    # record indices sorted by begin time for "who resumes at t" queries.
    by_end = sorted(recs, key=operator.attrgetter("t_end", "t_begin"))
    horizon = by_end[-1].t_end
    if makespan_s is None or makespan_s < horizon:
        makespan_s = horizon
    starts = [r.t_begin for r in recs]
    by_begin = sorted(range(len(recs)), key=starts.__getitem__)
    begins = [starts[i] for i in by_begin]

    segments: list[PathSegment] = []  # built back-to-front
    cursor = makespan_s
    if makespan_s > horizon:
        # Finalization tail after the last record (e.g. span bookkeeping).
        last = by_end[-1]
        segments.append(
            PathSegment(last.stream, KIND_IDLE, "", horizon, makespan_s)
        )
        cursor = horizon
    idx = len(by_end) - 1
    eps = 1e-15
    while cursor > eps and idx >= 0:
        # Latest-ending record with t_end <= cursor (+eps for float noise).
        while idx >= 0 and by_end[idx].t_end > cursor + eps:
            idx -= 1
        if idx < 0:
            break
        rec = by_end[idx]
        if rec.t_end < cursor - eps:
            # Gap: nothing ends at the cursor; whoever resumed at `cursor`
            # was waiting for `rec` to finish.  Blame the gap on the stream
            # that was blocked (the one that resumes), as idle/dependency
            # wait, then continue from rec's end.
            blocked = _stream_resuming_at(recs, by_begin, begins, cursor, rec.stream)
            segments.append(
                PathSegment(blocked, KIND_IDLE, "", rec.t_end, cursor)
            )
            cursor = rec.t_end
        # Consume the record (or the part of it below the cursor).
        lo = min(rec.t_begin, cursor)
        _emit(rec, lo, cursor, segments)
        cursor = lo
        idx -= 1
    if cursor > eps:
        first = min(recs, key=lambda r: r.t_begin)
        segments.append(PathSegment(first.stream, KIND_IDLE, "", 0.0, cursor))
    segments.reverse()
    return CriticalPath(makespan_s=makespan_s, segments=segments)


def _stream_resuming_at(
    recs: list[_Rec], by_begin: list[int], begins: list[float], t: float, fallback: str
) -> str:
    """The stream whose record begins at ``t`` (the one that was waiting).

    Of the records beginning within 1e-12 of ``t`` the earliest-ending one
    wins, the first in record order on a tie.  ``by_begin`` holds record
    indices sorted by begin time and ``begins`` their begin times; float
    subtraction is monotonic, so the matches are one run around ``t``'s
    insertion point.
    """
    lo = hi = bisect.bisect_left(begins, t)
    while lo > 0 and abs(begins[lo - 1] - t) < 1e-12:
        lo -= 1
    while hi < len(begins) and abs(begins[hi] - t) < 1e-12:
        hi += 1
    if lo == hi:
        return fallback
    best = min(by_begin[lo:hi], key=lambda i: (recs[i].t_end, i))
    return recs[best].stream


# ---------------------------------------------------------------------------
# Task-graph CPM


@dataclasses.dataclass
class GraphNode:
    """CPM annotations of one task."""

    key: _t.Hashable
    name: str
    duration: float
    earliest_finish: float = 0.0
    latest_finish: float = 0.0

    @property
    def slack(self) -> float:
        return self.latest_finish - self.earliest_finish

    def to_dict(self) -> dict:
        return {
            "key": repr(self.key),
            "name": self.name,
            "duration_s": self.duration,
            "earliest_finish_s": self.earliest_finish,
            "slack_s": self.slack,
        }


@dataclasses.dataclass
class GraphCriticalPath:
    """Longest dependency chain of a task DAG plus slack statistics."""

    length_s: float
    chain: list[GraphNode]
    nodes: list[GraphNode]
    n_edges: int

    @property
    def by_name(self) -> dict[str, float]:
        """Critical-chain time attributed per task name (kind)."""
        out: dict[str, float] = {}
        for n in self.chain:
            out[n.name] = out.get(n.name, 0.0) + n.duration
        return out

    def top_critical(self, k: int = 5) -> list[GraphNode]:
        """The k longest tasks on the critical chain."""
        return sorted(self.chain, key=lambda n: -n.duration)[:k]

    def to_dict(self, top_k: int = 5, bins: int = 8) -> dict:
        return {
            "length_s": self.length_s,
            "n_tasks": len(self.nodes),
            "n_edges": self.n_edges,
            "chain_len": len(self.chain),
            "by_name": {k: v for k, v in sorted(self.by_name.items())},
            "top_critical": [n.to_dict() for n in self.top_critical(top_k)],
            "slack_histogram": slack_histogram(self.nodes, bins=bins),
        }


def graph_critical_path(
    tasks: _t.Mapping[_t.Hashable, tuple[str, float]],
    edges: _t.Iterable[tuple[_t.Hashable, _t.Hashable]],
) -> GraphCriticalPath:
    """Classical CPM over ``tasks`` (key -> (name, duration)) and ``edges``.

    Edges run predecessor -> successor.  Raises :class:`ValueError` on a
    dependency cycle or an edge naming an unknown task.
    """
    nodes = {
        key: GraphNode(key=key, name=name, duration=float(dur))
        for key, (name, dur) in tasks.items()
    }
    succs: dict[_t.Hashable, list[_t.Hashable]] = {k: [] for k in nodes}
    preds: dict[_t.Hashable, list[_t.Hashable]] = {k: [] for k in nodes}
    n_edges = 0
    for a, b in edges:
        if a not in nodes or b not in nodes:
            raise ValueError(f"edge ({a!r}, {b!r}) names an unknown task")
        succs[a].append(b)
        preds[b].append(a)
        n_edges += 1

    # Kahn topological order (deterministic: keys sorted by repr).
    indeg = {k: len(preds[k]) for k in nodes}
    ready = sorted((k for k in nodes if indeg[k] == 0), key=repr)
    order = []
    while ready:
        k = ready.pop(0)
        order.append(k)
        newly = []
        for s in succs[k]:
            indeg[s] -= 1
            if indeg[s] == 0:
                newly.append(s)
        if newly:
            ready = sorted(ready + newly, key=repr)
    if len(order) != len(nodes):
        raise ValueError("task graph has a dependency cycle")

    # Forward pass: earliest finish.
    for k in order:
        n = nodes[k]
        start = max((nodes[p].earliest_finish for p in preds[k]), default=0.0)
        n.earliest_finish = start + n.duration
    length = max((n.earliest_finish for n in nodes.values()), default=0.0)

    # Backward pass: latest finish.
    for k in reversed(order):
        n = nodes[k]
        if succs[k]:
            n.latest_finish = min(
                nodes[s].latest_finish - nodes[s].duration for s in succs[k]
            )
        else:
            n.latest_finish = length

    # Chain backtracking from the sink with zero slack.
    chain: list[GraphNode] = []
    tol = 1e-12 * max(length, 1.0)
    current = None
    for k in order:
        n = nodes[k]
        if abs(n.earliest_finish - length) <= tol and n.slack <= tol:
            current = k
            break
    while current is not None:
        n = nodes[current]
        chain.append(n)
        nxt = None
        for p in sorted(preds[current], key=repr):
            pn = nodes[p]
            if (
                pn.slack <= tol
                and abs(pn.earliest_finish - (n.earliest_finish - n.duration)) <= tol
            ):
                nxt = p
                break
        current = nxt
    chain.reverse()

    return GraphCriticalPath(
        length_s=length,
        chain=chain,
        nodes=sorted(nodes.values(), key=lambda n: repr(n.key)),
        n_edges=n_edges,
    )


def slack_histogram(nodes: _t.Sequence[GraphNode], bins: int = 8) -> dict:
    """Fixed-bin histogram of task slack (how far off-critical tasks sit)."""
    if not nodes:
        return {"bins": [], "counts": [], "max_slack_s": 0.0}
    slacks = [max(n.slack, 0.0) for n in nodes]
    top = max(slacks)
    if top <= 0.0:
        return {"bins": [0.0], "counts": [len(slacks)], "max_slack_s": 0.0}
    width = top / bins
    counts = [0] * bins
    for s in slacks:
        i = min(int(s / width), bins - 1)
        counts[i] += 1
    return {
        "bins": [round(width * (i + 1), 15) for i in range(bins)],
        "counts": counts,
        "max_slack_s": top,
    }
