"""Tests for the tracing, timeline, Paraver and report modules (the POP
factor model is tested in ``tests/analysis/test_pop.py``)."""

import numpy as np
import pytest

from repro.core import RunConfig, trace_run
from repro.machine import knl_parameters
from repro.perf import (
    communicator_structure,
    format_factor_table,
    format_series,
    ipc_histogram,
    mpi_intervals,
    phase_intervals,
    phase_summary,
    read_prv,
    write_prv,
)
from repro.analysis import analyze_run, compute_totals, factor_rows

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)
FREQ = knl_parameters().frequency_hz


@pytest.fixture(scope="module")
def traced():
    cfg = RunConfig(**SMALL, ranks=2, taskgroups=2, version="original")
    return trace_run(cfg)


@pytest.fixture(scope="module")
def traced_tasks():
    cfg = RunConfig(**SMALL, ranks=2, taskgroups=2, version="ompss_perfft")
    return trace_run(cfg)


class TestTracer:
    def test_compute_records_cover_all_phases(self, traced):
        _res, trace = traced
        phases = {r.phase for r in trace.compute}
        assert phases == {
            "prepare_psis",
            "pack_sticks",
            "fft_z",
            "scatter_reorder",
            "fft_xy",
            "vofr",
            "unpack_sticks",
        }

    def test_streams_and_span(self, traced):
        res, trace = traced
        assert len(trace.streams) == 4
        assert trace.span == pytest.approx(res.phase_time, rel=1e-6)

    def test_per_stream_records_sorted(self, traced):
        _res, trace = traced
        recs = trace.compute_of((0, 0))
        starts = [r.start for r in recs]
        assert starts == sorted(starts)
        assert all(r.stream == (0, 0) for r in recs)

    def test_task_records_only_for_task_versions(self, traced, traced_tasks):
        assert traced[1].tasks == []
        _res, trace = traced_tasks
        assert len(trace.tasks) == 4 * 2  # 4 bands per rank... (nbnd/2=4) x 2 ranks

    def test_mpi_records_present(self, traced):
        _res, trace = traced
        assert trace.mpi and {r.call for r in trace.mpi} == {"alltoallw"}


class TestTimeline:
    def test_phase_intervals_sorted_with_ipc(self, traced):
        _res, trace = traced
        ivs = phase_intervals(trace, FREQ)
        begins = [iv.begin for iv in ivs]
        assert begins == sorted(begins)
        assert all(iv.duration >= 0 for iv in ivs)
        assert all(0 <= iv.ipc <= 2.0 for iv in ivs)

    def test_mpi_intervals(self, traced):
        _res, trace = traced
        ivs = mpi_intervals(trace)
        assert {iv.call for iv in ivs} == {"alltoallw"}
        assert all(iv.comm_name.startswith(("pack", "scatter")) for iv in ivs)

    def test_phase_summary_quotes_phase_ipcs(self, traced):
        res, trace = traced
        summary = phase_summary(trace, FREQ)
        assert summary["fft_xy"]["ipc"] == pytest.approx(
            res.cpu.counters.phase_ipc("fft_xy"), rel=1e-9
        )
        assert summary["prepare_psis"]["ipc"] < 0.1

    def test_ipc_histogram_conserves_time(self, traced):
        _res, trace = traced
        hist, edges, streams = ipc_histogram(trace, FREQ, bins=16)
        assert hist.shape == (len(streams), 16)
        total_time = sum(r.duration for r in trace.compute)
        assert hist.sum() == pytest.approx(total_time, rel=1e-9)

    def test_histogram_phase_filter(self, traced):
        _res, trace = traced
        hist, _edges, _streams = ipc_histogram(trace, FREQ, phases={"fft_xy"})
        xy_time = sum(r.duration for r in trace.compute if r.phase == "fft_xy")
        assert hist.sum() == pytest.approx(xy_time, rel=1e-9)

    def test_communicator_structure_matches_paper_layout(self, traced):
        """R pack comms of T consecutive ranks; T scatter comms of R strided."""
        _res, trace = traced
        comms = communicator_structure(trace)
        assert comms["pack0"]["streams"] == [0, 1]
        assert comms["pack1"]["streams"] == [2, 3]
        assert comms["scatter0"]["streams"] == [0, 2]
        assert comms["scatter1"]["streams"] == [1, 3]


class TestParaver:
    def test_write_read_roundtrip(self, traced, tmp_path):
        _res, trace = traced
        prv = write_prv(tmp_path / "run", trace)
        assert prv.exists()
        assert prv.with_suffix(".pcf").exists()
        assert prv.with_suffix(".row").exists()
        parsed = read_prv(prv)
        n_mpi = len(trace.mpi)
        assert len(parsed["states"]) == len(trace.compute) + n_mpi
        assert len(parsed["events"]) == len(trace.compute) + 2 * n_mpi
        assert parsed["duration_ns"] > 0

    def test_state_codes_distinguish_phases(self, traced, tmp_path):
        _res, trace = traced
        from repro.perf.paraver import MPI_CALL_CODES, STATE_CODES

        prv = write_prv(tmp_path / "run2", trace)
        parsed = read_prv(prv)
        seen = {s[-1] for s in parsed["states"]}
        assert STATE_CODES["fft_xy"] in seen
        assert MPI_CALL_CODES["alltoallw"] in seen

    def test_pcf_legend_lists_the_two_exchange_calls(self, traced, tmp_path):
        _res, trace = traced
        prv = write_prv(tmp_path / "run3", trace)
        legend = prv.with_suffix(".pcf").read_text()
        assert [ln for ln in legend.splitlines() if "MPI_" in ln] == [
            "20    MPI_alltoall",
            "32    MPI_alltoallw",
        ]

    def test_reader_parses_communication_records(self, tmp_path):
        prv = tmp_path / "comm.prv"
        prv.write_text(
            "#Paraver (01/01/2026 at 00:00):5000_ns:1(2):1:2(1:1)\n"
            "3:1:1:1:1:100:200:2:1:2:1:150:300:64:7\n"
        )
        assert read_prv(prv)["comms"] == [
            (1, 1, 1, 100, 200, 2, 2, 1, 150, 300, 64, 7)
        ]

    def test_reject_non_paraver_file(self, tmp_path):
        bad = tmp_path / "x.prv"
        bad.write_text("hello\n")
        with pytest.raises(ValueError, match="header"):
            read_prv(bad)


class TestReport:
    def test_factor_table_renders_all_rows(self, traced):
        res, _ = traced
        fs = factor_rows(analyze_run(res).pop, compute_totals(res.cpu.counters))
        text = format_factor_table([("1x2", fs), ("also", fs)], title="Table I")
        assert "Table I" in text
        assert "Load Balance" in text
        assert text.count("%") >= 18

    def test_factor_table_with_reference(self, traced):
        res, _ = traced
        fs = factor_rows(analyze_run(res).pop, compute_totals(res.cpu.counters))
        text = format_factor_table(
            [("1x2", fs)], reference={"Parallel efficiency": [95.75]}
        )
        assert "(paper)" in text
        assert "95.75" in text

    def test_series_bars_scale(self):
        text = format_series([("a", 0.1), ("b", 0.05)], title="Fig")
        lines = text.splitlines()
        assert lines[0] == "Fig"
        assert lines[1].count("#") > lines[2].count("#")
