"""Tests for the ASCII timeline renderer and comparison tables."""

import pytest

from repro.core import RunConfig, trace_run
from repro.analysis.render import TIMELINE_GLYPHS, format_comparison, render_timeline
from repro.telemetry import Trace

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)


class TestRenderTimeline:
    @pytest.fixture(scope="class")
    def trace(self):
        cfg = RunConfig(**SMALL, ranks=2, taskgroups=2, version="original")
        _res, trace = trace_run(cfg)
        return trace

    def test_one_row_per_stream(self, trace):
        text = render_timeline(trace, width=60)
        assert len(text.splitlines()) == len(trace.streams)

    def test_contains_phase_glyphs(self, trace):
        text = render_timeline(trace, width=80)
        assert "X" in text  # fft_xy
        assert "z" in text  # fft_z
        assert "p" in text  # prepare/pack
        assert "." in text  # idle / MPI

    def test_max_rows_truncation(self, trace):
        text = render_timeline(trace, width=40, max_rows=2)
        lines = text.splitlines()
        assert len(lines) == 3
        assert "more streams" in lines[-1]

    def test_custom_glyphs(self, trace):
        glyphs = dict(TIMELINE_GLYPHS, fft_xy="#")
        text = render_timeline(trace, width=60, glyphs=glyphs)
        assert "#" in text
        assert "X" not in text

    def test_empty_trace(self):
        assert "no compute" in render_timeline(Trace())

    def test_width_respected(self, trace):
        text = render_timeline(trace, width=30)
        for line in text.splitlines():
            assert len(line) <= 30 + 10  # label + line


class TestFormatComparison:
    def test_rows_and_headers(self):
        text = format_comparison(
            [("ipc", 0.77, 0.75)], title="T", headers=("got", "want")
        )
        assert "T" in text
        assert "got" in text and "want" in text
        assert "0.770" in text and "0.750" in text

    def test_empty_rows(self):
        text = format_comparison([], title="empty")
        assert "empty" in text
