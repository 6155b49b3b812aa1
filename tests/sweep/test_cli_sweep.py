"""The ``fftxlib-repro sweep`` subcommand, end to end."""

import json

import pytest

from repro.cli import main

BASE = ["sweep", "--quick", "--ranks", "1,2", "--versions", "original",
        "--taskgroups", "2", "--stable"]


def run_sweep_cli(tmp_path, name, extra):
    out = tmp_path / name
    code = main(BASE + ["--out", str(out)] + extra)
    return code, json.loads(out.read_text())


class TestSweepCommand:
    def test_serial_run_writes_manifest(self, tmp_path, capsys):
        code, manifest = run_sweep_cli(tmp_path, "serial.json", ["--jobs", "1"])
        assert code == 0
        assert manifest["sweep"]["mode"] == "serial"
        assert set(manifest["points"]) == {
            "ranks=1,version=original,taskgroups=2",
            "ranks=2,version=original,taskgroups=2",
        }
        out = capsys.readouterr().out
        assert "2 point(s)" in out
        assert "sweep manifest written" in out

    def test_jobs_do_not_change_points(self, tmp_path, capsys):
        _code, serial = run_sweep_cli(tmp_path, "serial.json", ["--jobs", "1"])
        _code, pooled = run_sweep_cli(tmp_path, "pooled.json", ["--jobs", "2"])
        assert pooled["sweep"]["mode"] == "process"
        assert serial["points"] == pooled["points"]

    def test_resume_skips_recorded_points(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert main(BASE + ["--out", str(out)]) == 0
        manifest = json.loads(out.read_text())
        removed = "ranks=2,version=original,taskgroups=2"
        del manifest["points"][removed]
        manifest["sweep"]["n_points"] = 1
        out.write_text(json.dumps(manifest))
        capsys.readouterr()

        assert main(BASE + ["--out", str(out), "--resume"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any("reused" in l and removed not in l for l in lines)
        assert json.loads(out.read_text())["sweep"]["n_points"] == 2

    def test_resume_without_out_is_an_input_error(self, capsys):
        assert main(["sweep", "--resume"]) == 2
        assert "--resume needs --out" in capsys.readouterr().err

    def test_unknown_version_is_an_input_error(self, capsys):
        assert main(["sweep", "--versions", "bogus"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_field_is_an_input_error(self, capsys, monkeypatch):
        # A base dict still naming a field RunConfig no longer has ends in
        # the one-line error, not a TypeError traceback.
        from repro.cli import sweep as sweep_cli

        monkeypatch.setattr(
            sweep_cli, "QUICK_WORKLOAD", dict(sweep_cli.QUICK_WORKLOAD, kernel_workers=1)
        )
        assert main(["sweep", "--quick"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration: base parameter 'kernel_workers'")
        assert "Traceback" not in err

    def test_bad_axis_literal_is_an_input_error(self, capsys):
        assert main(["sweep", "--ranks", "2,x"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_pop_adds_factors(self, tmp_path, capsys):
        code, manifest = run_sweep_cli(
            tmp_path, "pop.json", ["--jobs", "1", "--pop"]
        )
        assert code == 0
        for entry in manifest["points"].values():
            assert "pop" not in entry["summary"]
            assert entry["summary"]["analysis"]["pop"]["split_source"] == "replay"

    def test_perf_validate_accepts_sweep_manifest(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert main(BASE + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["perf", "validate", str(out)]) == 0
        assert "valid sweep manifest" in capsys.readouterr().out

    def test_perf_validate_rejects_corrupt_sweep_manifest(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert main(BASE + ["--out", str(out)]) == 0
        manifest = json.loads(out.read_text())
        del manifest["sweep"]["n_points"]
        out.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["perf", "validate", str(out)]) == 1
        assert "INVALID" in capsys.readouterr().err


class TestExperimentJobsFlag:
    @pytest.mark.parametrize("extra", [[], ["--jobs", "2"]])
    def test_fig7_runs_with_jobs(self, extra, capsys):
        assert main(["fig7", "--quick"] + extra) == 0
        assert "de-synchronization" in capsys.readouterr().out
