"""Tests for the run-comparison tool."""

import pytest

from repro.core import RunConfig, trace_run
from repro.machine import knl_parameters
from repro.perf.compare import compare_runs, format_run_comparison

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)
FREQ = knl_parameters().frequency_hz


@pytest.fixture(scope="module")
def traces():
    out = {}
    for version in ("original", "ompss_perfft"):
        _res, trace = trace_run(
            RunConfig(**SMALL, ranks=2, taskgroups=2, version=version)
        )
        out[version] = trace
    return out


class TestCompareRuns:
    def test_self_comparison_is_neutral(self, traces):
        cmp = compare_runs(traces["original"], traces["original"], FREQ)
        assert cmp.regressions() == []
        assert cmp.improvements() == []
        for p in cmp.phases:
            assert p.time_delta == 0.0
            assert p.relative == 0.0

    def test_cross_version_layers(self, traces):
        cmp = compare_runs(traces["original"], traces["ompss_perfft"], FREQ)
        # The original has both MPI layers; the per-FFT version has no pack.
        assert "pack" in cmp.mpi_a
        assert "scatter" in cmp.mpi_a
        assert "pack" not in cmp.mpi_b
        assert cmp.total_compute_a > 0 and cmp.total_compute_b > 0

    def test_phase_union_includes_disappearing_phases(self, traces):
        cmp = compare_runs(traces["original"], traces["ompss_perfft"], FREQ)
        names = {p.name for p in cmp.phases}
        assert "pack_sticks" in names  # present in A only
        pack = next(p for p in cmp.phases if p.name == "pack_sticks")
        assert pack.time_b == 0.0
        assert pack.relative == -1.0

    def test_new_phase_relative_is_inf(self, traces):
        cmp = compare_runs(traces["ompss_perfft"], traces["original"], FREQ)
        pack = next(p for p in cmp.phases if p.name == "pack_sticks")
        assert pack.relative == float("inf")

    def test_thresholded_views(self, traces):
        cmp = compare_runs(traces["original"], traces["ompss_perfft"], FREQ)
        assert all(p.relative > 0.05 for p in cmp.regressions())
        assert all(p.relative < -0.05 for p in cmp.improvements())

    def test_render(self, traces):
        cmp = compare_runs(traces["original"], traces["ompss_perfft"], FREQ)
        text = format_run_comparison(cmp, labels=("orig", "ompss"))
        assert "orig time" in text and "ompss time" in text
        assert "total compute" in text
        assert "MPI scatter" in text
        assert "fft_xy" in text
