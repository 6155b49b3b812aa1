"""Tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "table1" in out
        assert "ablation-versions" in out

    def test_run_quick_validate(self, capsys):
        code = main(["run", "--ranks", "1", "--taskgroups", "2", "--quick", "--validate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max relative error" in out

    def test_run_task_version(self, capsys):
        code = main(["run", "--ranks", "2", "--taskgroups", "2", "--quick",
                     "--version", "ompss_perfft"])
        assert code == 0
        assert "ompss_perfft" in capsys.readouterr().out

    def test_experiment_dispatch_quick(self, capsys):
        code = main(["fig3", "--quick"])
        assert code == 0
        assert "Fig. 3" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "fig2" in proc.stdout


class TestCliCompare:
    def test_compare_prints_the_triage(self, capsys):
        argv = ["compare", "--quick", "--ranks", "2", "--taskgroups", "2",
                "original", "ompss_perfft"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["A: 2x2 original", "B: 2x2 ompss_perfft"]
        assert lines[2].startswith("verdict: ")

    @pytest.mark.parametrize(
        "args, message",
        [
            (["original", "bogus"], "unknown version 'bogus'"),
            (["--ranks", "0", "original", "ompss_perfft"], "ranks must be >= 1"),
            (["--taskgroups", "0", "original", "ompss_perfft"],
             "taskgroups must be >= 1"),
        ],
        ids=["version", "ranks", "taskgroups"],
    )
    def test_compare_invalid_config_exits_2(self, args, message):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "compare", "--quick", *args],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: invalid configuration: ")
        assert message in proc.stderr
        assert proc.stderr.count("\n") == 1


class TestCliTelemetry:
    RUN = ["run", "--ranks", "2", "--taskgroups", "2", "--quick"]

    def test_run_exports(self, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        chrome = tmp_path / "trace.json"
        prom = tmp_path / "run.prom"
        code = main(
            self.RUN
            + ["--manifest", str(manifest), "--chrome", str(chrome),
               "--prometheus", str(prom)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "manifest written" in out
        assert manifest.exists() and chrome.exists() and prom.exists()
        doc = json.loads(chrome.read_text())
        assert {"M", "X"} <= {e["ph"] for e in doc["traceEvents"]}

    def test_run_pop_adds_factors(self, tmp_path):
        manifest = tmp_path / "run.json"
        assert main(self.RUN + ["--manifest", str(manifest), "--pop"]) == 0
        doc = json.loads(manifest.read_text())
        assert "pop" not in doc  # one POP section, and it is the replay's
        pop = doc["analysis"]["pop"]
        assert pop["split_source"] == "replay"
        assert 0 < pop["parallel_efficiency"] <= 1.001
        (series,) = doc["metrics"]["analysis.transfer_efficiency"]["series"]
        assert series["value"] == pop["transfer_efficiency"]

    def test_perf_validate_and_diff_and_check(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(self.RUN + ["--manifest", str(a)]) == 0
        assert main(self.RUN + ["--version", "ompss_perfft", "--manifest", str(b)]) == 0
        capsys.readouterr()

        assert main(["perf", "validate", str(a)]) == 0
        assert "valid run manifest" in capsys.readouterr().out

        assert main(["perf", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "verdict: NEUTRAL" in out
        assert "dominant phase:  prepare_psis" in out

        assert main(["perf", "check", "--baseline", str(a), str(a)]) == 0
        assert "no regression" in capsys.readouterr().out

    def test_perf_check_flags_regression(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        assert main(self.RUN + ["--manifest", str(a)]) == 0
        doc = json.loads(a.read_text())
        doc["timing"]["phase_time_s"] *= 1.5
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["perf", "check", "--baseline", str(a), str(slow)]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_perf_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "nope"}))
        assert main(["perf", "validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, doc, code, line",
        [
            (
                ["perf", "validate"],
                {"kind": "repro.service_manifest", "schema_version": 1,
                 "counts": {"submitted": 3, "accepted": 3}},
                1,
                "INVALID: {path}: unknown manifest kind 'repro.service_manifest' "
                "(expected run or sweep manifest)",
            ),
            (
                ["faults", "validate"],
                {"kind": "repro.service_chaos", "seed": 7, "failure_rate": 0.05},
                2,
                "error: {path}: kind must be 'repro.fault_scenario', "
                "got 'repro.service_chaos'",
            ),
        ],
        ids=["service_manifest", "service_chaos"],
    )
    def test_legacy_service_documents_fail_in_one_line(
        self, tmp_path, capsys, command, doc, code, line
    ):
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(doc))
        assert main(command + [str(path)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line.format(path=path) + "\n"


class TestCliNegativeNumbers:
    """A negative ``--threshold`` or ``--top`` is bad input, rejected while
    the arguments are parsed: one ``error:`` line, exit 2, before any
    manifest is read."""

    GOLDEN = str(pathlib.Path(__file__).parent / "perf/golden/run_8x8_quick.json")

    @pytest.mark.parametrize(
        "args, line",
        [
            (["perf", "check", "--baseline", GOLDEN, GOLDEN, "--threshold", "-1"],
             "error: argument --threshold: must be >= 0, got -1"),
            (["analyze", GOLDEN, GOLDEN, "--threshold", "-1"],
             "error: argument --threshold: must be >= 0, got -1"),
            (["analyze", GOLDEN, GOLDEN, "--threshold", "nan"],
             "error: argument --threshold: must be >= 0, got nan"),
            (["analyze", GOLDEN, GOLDEN, "--top", "-1"],
             "error: argument --top: must be >= 0, got -1"),
        ],
        ids=["check-threshold", "analyze-threshold", "analyze-nan", "analyze-top"],
    )
    def test_rejected_in_one_line(self, capsys, args, line):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line + "\n"

    def test_zero_is_accepted(self, capsys):
        assert main(["analyze", self.GOLDEN, self.GOLDEN, "--top", "0", "--threshold", "0"]) == 0
        out = capsys.readouterr().out
        assert "verdict: NEUTRAL" in out
        assert "more finding(s)" in out

    def test_module_entry_point_prints_no_traceback(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", self.GOLDEN, self.GOLDEN,
             "--threshold", "-1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: argument --threshold: must be >= 0, got -1\n"


class TestCliFaults:
    RUN = ["run", "--ranks", "2", "--taskgroups", "2", "--quick"]

    @staticmethod
    def scenario_file(tmp_path, doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_faults_validate_accepts_good_scenario(self, tmp_path, capsys):
        path = self.scenario_file(
            tmp_path,
            {"kind": "repro.fault_scenario",
             "stragglers": [{"rank": 0, "slowdown": 2.0}]},
        )
        assert main(["faults", "validate", path]) == 0
        assert "valid fault scenario" in capsys.readouterr().out

    def test_faults_validate_rejects_bad_scenario(self, tmp_path, capsys):
        path = self.scenario_file(
            tmp_path,
            {"kind": "repro.fault_scenario",
             "stragglers": [{"rank": 0, "slowdown": 0.1}]},
        )
        assert main(["faults", "validate", path]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_faults_validate_missing_file(self, tmp_path, capsys):
        assert main(["faults", "validate", str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_run_with_scenario_prints_summary(self, tmp_path, capsys):
        path = self.scenario_file(
            tmp_path,
            {"kind": "repro.fault_scenario", "name": "strag",
             "stragglers": [{"rank": 0, "slowdown": 2.0}]},
        )
        assert main(self.RUN + ["--faults", path]) == 0
        assert "faults: scenario 'strag'" in capsys.readouterr().out

    def test_run_with_malformed_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(self.RUN + ["--faults", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_run_invalid_config_exits_2(self, capsys):
        assert main(["run", "--ranks", "0"]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_unrecoverable_run_exits_1_with_manifest(self, tmp_path, capsys):
        path = self.scenario_file(
            tmp_path,
            {"kind": "repro.fault_scenario", "kill_transfer": 5,
             "max_resumes": 0},
        )
        manifest = tmp_path / "m.json"
        code = main(self.RUN + ["--faults", path, "--manifest", str(manifest)])
        captured = capsys.readouterr()
        assert code == 1
        assert "did not recover" in captured.err
        doc = json.loads(manifest.read_text())
        assert doc["failed"] is True
        assert "MpiLinkError" in doc["fault_report"]["failure"]

    def test_stable_manifests_are_byte_identical(self, tmp_path):
        path = self.scenario_file(
            tmp_path,
            {"kind": "repro.fault_scenario", "seed": 3,
             "stragglers": [{"rank": 1, "slowdown": 2.0}],
             "links": [{"drop_probability": 0.2}], "mpi_max_retries": 10},
        )
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(self.RUN + ["--faults", path, "--manifest", str(a),
                                "--stable-manifest"]) == 0
        assert main(self.RUN + ["--faults", path, "--manifest", str(b),
                                "--stable-manifest"]) == 0
        assert a.read_bytes() == b.read_bytes()
