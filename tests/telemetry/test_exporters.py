"""The exporter registry: every format from one completed run."""

import json

import pytest

from repro.core import RunConfig, run_fft_phase
from repro.telemetry.exporters import EXPORTERS, export_run
from repro.telemetry.manifest import load_manifest

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8, ranks=2, taskgroups=2)


@pytest.fixture(scope="module")
def result():
    return run_fft_phase(RunConfig(version="original", telemetry=True, **SMALL))


class TestExportRun:
    def test_registry_contents(self):
        assert set(EXPORTERS) == {"chrome", "prometheus", "prv", "manifest"}

    def test_chrome(self, result, tmp_path):
        path = export_run(result, "chrome", tmp_path / "trace")
        doc = json.loads(path.read_text())
        assert doc["otherData"]["label"] == result.config.label()
        kinds = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X"} <= kinds

    def test_prometheus(self, result, tmp_path):
        path = export_run(result, "prometheus", tmp_path / "metrics")
        assert path.suffix == ".prom"
        text = path.read_text()
        assert "# TYPE mpi_calls counter" in text
        assert "machine_average_ipc" in text

    def test_prv(self, result, tmp_path):
        from repro.telemetry.paraver import read_prv

        path = export_run(result, "prv", tmp_path / "run")
        assert path.suffix == ".prv"
        assert path.with_suffix(".pcf").exists()
        assert path.with_suffix(".row").exists()
        parsed = read_prv(path)
        assert len(parsed["states"]) == (
            len(result.telemetry.trace.compute) + len(result.telemetry.trace.mpi)
        )

    def test_manifest(self, result, tmp_path):
        path = export_run(result, "manifest", tmp_path / "run.json")
        manifest = load_manifest(path)
        assert manifest["config"]["label"] == result.config.label()

    def test_unknown_format_rejected(self, result, tmp_path):
        with pytest.raises(ValueError, match="unknown export format"):
            export_run(result, "xml", tmp_path / "x")

    def test_telemetry_required(self, tmp_path):
        plain = run_fft_phase(RunConfig(version="original", **SMALL))
        assert plain.telemetry is None
        with pytest.raises(ValueError, match="telemetry-enabled"):
            export_run(plain, "chrome", tmp_path / "x")
