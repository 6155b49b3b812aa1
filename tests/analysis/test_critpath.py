"""Critical-path extraction on graphs and timelines with known answers."""

import random

import pytest

from repro.analysis.critpath import (
    KIND_COMPUTE,
    KIND_IDLE,
    KIND_MPI_TRANSFER,
    KIND_MPI_WAIT,
    _Rec,
    _stream_resuming_at,
    critical_path_from_trace,
    graph_critical_path,
    slack_histogram,
)
from repro.machine.cpu import ComputeRecord
from repro.mpisim.world import MpiRecord
from repro.telemetry.trace import Trace


class TestGraphCpm:
    def test_chain(self):
        g = graph_critical_path(
            {"a": ("a", 1.0), "b": ("b", 2.0), "c": ("c", 3.0)},
            [("a", "b"), ("b", "c")],
        )
        assert g.length_s == pytest.approx(6.0)
        assert [n.name for n in g.chain] == ["a", "b", "c"]
        assert all(n.slack == pytest.approx(0.0) for n in g.nodes)

    def test_diamond(self):
        # a(1) -> {b(2), c(5)} -> d(1): the long arm c is critical, b has
        # slack 3 (it may finish any time before c does).
        g = graph_critical_path(
            {"a": ("a", 1.0), "b": ("b", 2.0), "c": ("c", 5.0), "d": ("d", 1.0)},
            [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
        )
        assert g.length_s == pytest.approx(7.0)
        assert [n.name for n in g.chain] == ["a", "c", "d"]
        slack = {n.name: n.slack for n in g.nodes}
        assert slack["b"] == pytest.approx(3.0)
        assert slack["a"] == slack["c"] == slack["d"] == pytest.approx(0.0)

    def test_fan_out(self):
        tasks = {"a": ("a", 1.0)}
        edges = []
        for i in range(1, 5):
            tasks[f"b{i}"] = ("b", float(i))
            edges.append(("a", f"b{i}"))
        g = graph_critical_path(tasks, edges)
        assert g.length_s == pytest.approx(5.0)  # a(1) + the longest leaf b4(4)
        assert [n.key for n in g.chain] == ["a", "b4"]
        assert g.by_name == {"a": 1.0, "b": 4.0}

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            graph_critical_path(
                {"a": ("a", 1.0), "b": ("b", 1.0)},
                [("a", "b"), ("b", "a")],
            )

    def test_unknown_edge_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            graph_critical_path({"a": ("a", 1.0)}, [("a", "ghost")])

    def test_top_critical_orders_by_duration(self):
        g = graph_critical_path(
            {"a": ("a", 1.0), "b": ("b", 5.0), "c": ("c", 2.0)},
            [("a", "b"), ("b", "c")],
        )
        assert [n.name for n in g.top_critical(2)] == ["b", "c"]

    def test_slack_histogram_all_critical(self):
        g = graph_critical_path(
            {"a": ("a", 1.0), "b": ("b", 1.0)}, [("a", "b")]
        )
        hist = slack_histogram(g.nodes)
        assert hist == {"bins": [0.0], "counts": [2], "max_slack_s": 0.0}

    def test_slack_histogram_bins(self):
        g = graph_critical_path(
            {"a": ("a", 1.0), "b": ("b", 2.0), "c": ("c", 5.0), "d": ("d", 1.0)},
            [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
        )
        hist = slack_histogram(g.nodes, bins=4)
        assert hist["max_slack_s"] == pytest.approx(3.0)
        assert sum(hist["counts"]) == 4
        assert hist["counts"][-1] == 1  # only b sits in the top slack bin

    def test_to_dict_shape(self):
        g = graph_critical_path(
            {"a": ("a", 1.0), "b": ("b", 2.0)}, [("a", "b")]
        )
        doc = g.to_dict()
        assert doc["length_s"] == pytest.approx(3.0)
        assert doc["n_tasks"] == 2 and doc["n_edges"] == 1
        assert doc["chain_len"] == 2
        assert set(doc["slack_histogram"]) == {"bins", "counts", "max_slack_s"}


def compute(stream, phase, start, end):
    return ComputeRecord(
        stream=stream, thread=None, phase=phase,
        instructions=1.0, start=start, end=end,
    )


def mpi(stream, begin, end, sync, comm="pack0"):
    return MpiRecord(
        stream=stream, call="alltoall", comm_id=1, comm_name=comm,
        t_begin=begin, t_end=end, bytes_sent=1.0, sync_time=sync,
    )


class TestTimelineWalk:
    def test_handoff_through_mpi(self):
        # Stream "a" computes [0,4] and [6,10]; stream "b" runs an MPI call
        # [4,6] with 1 s of sync.  Expected tiling of [0,10]:
        # compute 4 + wait 1 + transfer 1 + compute 4.
        trace = Trace()
        trace.compute += [compute("a", "p1", 0.0, 4.0), compute("a", "p2", 6.0, 10.0)]
        trace.mpi.append(mpi("b", 4.0, 6.0, sync=1.0))
        path = critical_path_from_trace(trace, makespan_s=10.0)
        assert path.length_s == pytest.approx(10.0)
        assert path.by_kind == pytest.approx(
            {KIND_COMPUTE: 8.0, KIND_MPI_WAIT: 1.0, KIND_MPI_TRANSFER: 1.0}
        )
        kinds = [s.kind for s in path.segments]
        assert kinds == [KIND_COMPUTE, KIND_MPI_WAIT, KIND_MPI_TRANSFER, KIND_COMPUTE]

    def test_gap_becomes_idle(self):
        # Nothing runs in [3,5]: the walk attributes the gap as dependency
        # idle on the stream that resumes at 5.
        trace = Trace()
        trace.compute += [compute("a", "p1", 0.0, 3.0), compute("b", "p2", 5.0, 8.0)]
        path = critical_path_from_trace(trace, makespan_s=8.0)
        assert path.length_s == pytest.approx(8.0)
        assert path.by_kind == pytest.approx({KIND_COMPUTE: 6.0, KIND_IDLE: 2.0})
        idle = [s for s in path.segments if s.kind == KIND_IDLE]
        assert idle[0].stream == "'b'"  # the blocked stream, not the blocker

    def test_length_equals_makespan_with_tail(self):
        trace = Trace()
        trace.compute.append(compute("a", "p", 0.0, 3.0))
        path = critical_path_from_trace(trace, makespan_s=4.0)
        assert path.length_s == pytest.approx(4.0)
        assert path.by_kind[KIND_IDLE] == pytest.approx(1.0)

    def test_empty_trace(self):
        path = critical_path_from_trace(Trace())
        assert path.segments == [] and path.length_s == 0.0

    def test_top_labels(self):
        trace = Trace()
        trace.compute += [compute("a", "big", 0.0, 7.0), compute("a", "small", 7.0, 8.0)]
        path = critical_path_from_trace(trace)
        assert path.top_labels(1) == [("big", pytest.approx(7.0))]

    def test_to_dict_merges_adjacent_segments(self):
        trace = Trace()
        trace.compute += [compute("a", "p", 0.0, 2.0), compute("a", "p", 2.0, 5.0)]
        doc = critical_path_from_trace(trace).to_dict()
        assert doc["n_segments"] == 1
        assert doc["segments"][0]["duration_s"] == pytest.approx(5.0)
        assert doc["length_s"] == pytest.approx(doc["makespan_s"])


def _resuming_by_scan(recs, t, fallback):
    """Reference: scan every record (the walk did this once per gap)."""
    best = None
    for r in recs:
        if abs(r.t_begin - t) < 1e-12:
            if best is None or r.t_end < best.t_end:
                best = r
    return best.stream if best is not None else fallback


@pytest.mark.parametrize("base", [1e-3, 0.5, 3.0, 1e5])
def test_resuming_stream_bisect_matches_the_scan(base):
    """Begins within, at and just past the 1e-12 tolerance, ties on end."""
    rng = random.Random(int(base * 1000))
    offsets = (0.0, 1e-16, 1e-13, 4e-13, 9e-13, 1e-12, 1.1e-12, 3e-12)
    for _ in range(300):
        recs = []
        for i in range(rng.randint(1, 25)):
            begin = base + rng.choice((-1, 1)) * rng.choice(offsets)
            end = begin + rng.choice((0.5, 1.0, 2.0))
            recs.append(_Rec(f"s{i}", "compute", "", begin, end, 0.0))
        starts = [r.t_begin for r in recs]
        by_begin = sorted(range(len(recs)), key=starts.__getitem__)
        begins = [starts[i] for i in by_begin]
        for t in [base, base + 5e-13, base - 5e-13] + starts:
            assert _stream_resuming_at(recs, by_begin, begins, t, "none") == (
                _resuming_by_scan(recs, t, "none")
            )
