"""Chrome-trace (Perfetto) export: structure of the traceEvents list."""

import json

from repro.machine.cpu import ComputeRecord
from repro.machine.topology import NodeTopology
from repro.mpisim.world import MpiRecord
from repro.telemetry.chrometrace import chrome_trace_events, write_chrome_trace
from repro.telemetry.spans import SpanLog
from repro.telemetry.trace import Trace

TOPO = NodeTopology(n_cores=8, threads_per_core=2, frequency_hz=1e9)


def _compute(stream, phase, start, end, instructions=1000):
    return ComputeRecord(
        stream=stream,
        thread=TOPO.hw_thread(stream[0], stream[1]),
        phase=phase,
        instructions=instructions,
        start=start,
        end=end,
    )


def _mpi(stream, call, t0, t1, **kw):
    defaults = dict(
        comm_id=0, comm_name="world", bytes_sent=64.0, sync_time=0.0
    )
    defaults.update(kw)
    return MpiRecord(stream=stream, call=call, t_begin=t0, t_end=t1, **defaults)


def small_trace() -> Trace:
    trace = Trace()
    trace.compute.append(_compute((0, 0), "fft_z", 0.0, 1e-3))
    trace.compute.append(_compute((1, 0), "fft_xy", 0.0, 2e-3))
    # A 2-member collective: same comm/call/end time -> one flow.
    trace.mpi.append(_mpi((0, 0), "alltoall", 1e-3, 3e-3))
    trace.mpi.append(_mpi((1, 0), "alltoall", 2e-3, 3e-3))
    # A second collective on another communicator -> its own flow.
    trace.mpi.append(_mpi((0, 0), "alltoallw", 3e-3, 4e-3, comm_id=1, comm_name="pack0"))
    trace.mpi.append(_mpi((1, 0), "alltoallw", 3.5e-3, 4e-3, comm_id=1, comm_name="pack0"))
    return trace


def by_ph(events, ph):
    return [e for e in events if e["ph"] == ph]


class TestChromeTraceEvents:
    def test_metadata_names_every_track(self):
        trace = small_trace()
        events = chrome_trace_events(trace)
        names = [
            e["args"]["name"] for e in by_ph(events, "M") if e["name"] == "thread_name"
        ]
        assert "rank 0 / hw thread 0" in names
        assert "rank 1 / hw thread 0" in names
        assert "driver" in names
        # One process_name metadata event.
        assert sum(1 for e in by_ph(events, "M") if e["name"] == "process_name") == 1

    def test_complete_events_cover_records(self):
        trace = small_trace()
        events = chrome_trace_events(trace, frequency_hz=1e9)
        xs = by_ph(events, "X")
        assert len(xs) == len(trace.compute) + len(trace.mpi)
        compute = [e for e in xs if e["cat"] == "compute"]
        assert {e["name"] for e in compute} == {"fft_z", "fft_xy"}
        assert all("ipc" in e["args"] for e in compute)
        mpi = [e for e in xs if e["cat"] == "mpi"]
        assert {e["name"] for e in mpi} == {"MPI_alltoall", "MPI_alltoallw"}
        # Timestamps are microseconds of simulated time.
        fft_z = next(e for e in compute if e["name"] == "fft_z")
        assert fft_z["ts"] == 0.0
        assert fft_z["dur"] == 1e-3 * 1e6

    def test_flow_events_one_per_collective(self):
        events = chrome_trace_events(small_trace())
        starts = by_ph(events, "s")
        finishes = by_ph(events, "f")
        assert len(starts) == 2  # one per collective operation
        assert len(finishes) == 2
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}
        assert all(e["bp"] == "e" for e in finishes)
        # Flows bind mid-slice so the arrows attach to their X events.
        for e in starts + finishes:
            assert e["cat"] == "mpi-flow"

    def test_span_tracks_get_tids_even_without_records(self):
        # Executor spans live on (rank, 0); a span-only track (e.g. a rank
        # whose stream produced no compute records) must still resolve.
        trace = Trace()
        trace.compute.append(_compute((0, 0), "fft_z", 0.0, 1e-3))
        spans = SpanLog()
        spans.add((5, 0), "exec_original", "executor", 0.0, 1e-3)
        spans.add("driver", "run", "run", 0.0, 1e-3)
        events = chrome_trace_events(trace, spans)
        xs = by_ph(events, "X")
        assert {e["name"] for e in xs} == {"fft_z", "exec_original", "run"}
        named_tids = {
            e["tid"] for e in by_ph(events, "M") if e["name"] == "thread_name"
        }
        assert all(e["tid"] in named_tids for e in xs)

    def test_counter_events_from_queue_samples(self):
        events = chrome_trace_events(
            small_trace(), queue_depth_samples=[(1e-3, 0, 3), (2e-3, 0, 1)]
        )
        counters = by_ph(events, "C")
        assert [e["args"]["depth"] for e in counters] == [3, 1]
        assert all(e["name"] == "task queue rank 0" for e in counters)

    def test_events_sorted_by_timestamp(self):
        events = chrome_trace_events(small_trace())
        ts = [e.get("ts", -1.0) for e in events]
        assert ts == sorted(ts)


class TestWriteChromeTrace:
    def test_writes_loadable_json(self, tmp_path):
        path = write_chrome_trace(tmp_path / "trace", small_trace(), label="t")
        assert path.suffix == ".json"
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        assert doc["otherData"]["label"] == "t"
        assert doc["displayTimeUnit"] == "ms"
