"""Property tests: Paraver write/read round-trips on synthetic traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cpu import ComputeRecord
from repro.machine.topology import NodeTopology
from repro.mpisim.world import MpiRecord
from repro.perf.paraver import MPI_CALL_CODES, STATE_CODES, read_prv, write_prv
from repro.telemetry import Trace

PHASES = [p for p in STATE_CODES if p != "idle"]
CALLS = list(MPI_CALL_CODES)
TOPO = NodeTopology(n_cores=8, threads_per_core=2, frequency_hz=1e9)


@st.composite
def synthetic_trace(draw):
    trace = Trace()
    n_streams = draw(st.integers(min_value=1, max_value=4))
    for s in range(n_streams):
        t = 0.0
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            dur = draw(st.floats(min_value=1e-6, max_value=1e-3))
            phase = draw(st.sampled_from(PHASES))
            trace.compute.append(
                ComputeRecord(
                    stream=(s, 0),
                    thread=TOPO.hw_thread(s % 8, 0),
                    phase=phase,
                    instructions=draw(st.integers(min_value=1, max_value=10**9)),
                    start=t,
                    end=t + dur,
                )
            )
            t += dur
            if draw(st.booleans()):
                mdur = draw(st.floats(min_value=1e-6, max_value=1e-4))
                trace.mpi.append(
                    MpiRecord(
                        stream=(s, 0),
                        call=draw(st.sampled_from(CALLS)),
                        comm_id=0,
                        comm_name="world",
                        t_begin=t,
                        t_end=t + mdur,
                        bytes_sent=draw(st.floats(min_value=0, max_value=1e6)),
                        sync_time=0.0,
                    )
                )
                t += mdur
    # Whole collectives: every stream joins, all members end together.
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        call = draw(st.sampled_from(CALLS))
        t_end = draw(st.floats(min_value=1e-4, max_value=2e-3))
        for s in range(n_streams):
            t_begin = t_end - draw(st.floats(min_value=1e-6, max_value=1e-4))
            trace.mpi.append(
                MpiRecord(
                    stream=(s, 0),
                    call=call,
                    comm_id=1,
                    comm_name="pack0",
                    t_begin=t_begin,
                    t_end=t_end,
                    bytes_sent=float(draw(st.integers(min_value=0, max_value=10**6))),
                    sync_time=0.0,
                )
            )
    return trace


class TestParaverFuzz:
    @settings(max_examples=25, deadline=None)
    @given(trace=synthetic_trace())
    def test_roundtrip_preserves_record_counts_and_codes(self, trace, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("prv")
        prv = write_prv(tmp / "fuzz", trace)
        parsed = read_prv(prv)

        assert len(parsed["states"]) == len(trace.compute) + len(trace.mpi)
        assert len(parsed["events"]) == len(trace.compute) + 2 * len(trace.mpi)

        # State code multiset matches the trace.
        want = sorted(
            [STATE_CODES[r.phase] for r in trace.compute]
            + [MPI_CALL_CODES[r.call] for r in trace.mpi]
        )
        got = sorted(s[-1] for s in parsed["states"])
        assert got == want

        # Durations survive the ns quantisation to within 1 ns.
        for rec in trace.compute:
            matches = [
                s
                for s in parsed["states"]
                if s[-1] == STATE_CODES[rec.phase]
                and abs(s[3] - round(rec.start * 1e9)) <= 1
            ]
            assert matches

    @settings(max_examples=25, deadline=None)
    @given(trace=synthetic_trace())
    def test_writer_emits_no_communication_records(self, trace, tmp_path_factory):
        """Collectives stay state records: no type-3 record is written."""
        tmp = tmp_path_factory.mktemp("prv")
        assert read_prv(write_prv(tmp / "fuzz3", trace))["comms"] == []

    @settings(max_examples=15, deadline=None)
    @given(trace=synthetic_trace())
    def test_instruction_events_preserved(self, trace, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("prv")
        prv = write_prv(tmp / "fuzz2", trace)
        parsed = read_prv(prv)
        from repro.perf.paraver import EV_INSTRUCTIONS

        instr_events = sorted(
            v for _c, _t, _th, _time, etype, v in parsed["events"] if etype == EV_INSTRUCTIONS
        )
        assert instr_events == sorted(int(r.instructions) for r in trace.compute)
