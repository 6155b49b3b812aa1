"""Smoke tests for the example scripts.

Every example must at least compile; the fastest ones also run end to end
in a subprocess (offline, seconds).
"""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).parent.parent / "examples").glob("*.py"))


class TestExamples:
    def test_examples_exist(self):
        names = {p.name for p in EXAMPLES}
        assert {"quickstart.py", "scaling_study.py", "trace_analysis.py"} <= names
        assert len(EXAMPLES) >= 7

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_examples_compile(self, path):
        py_compile.compile(str(path), doraise=True)

    def test_quickstart_runs(self):
        result = subprocess.run(
            [sys.executable, "examples/quickstart.py"],
            capture_output=True,
            text=True,
            timeout=300,
            cwd=pathlib.Path(__file__).parent.parent,
        )
        assert result.returncode == 0, result.stderr
        assert "max relative error" in result.stdout

    def test_desync_timeline_quick_runs(self):
        result = subprocess.run(
            [sys.executable, "examples/desync_timeline.py", "--quick", "--ranks", "2"],
            capture_output=True,
            text=True,
            timeout=300,
            cwd=pathlib.Path(__file__).parent.parent,
        )
        assert result.returncode == 0, result.stderr
        assert "original" in result.stdout
