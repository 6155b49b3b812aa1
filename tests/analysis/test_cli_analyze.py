"""The ``analyze`` CLI: single-run, A/B and sweep modes, all formats."""

import json

import pytest

from repro.cli import main

RUN = ["run", "--ranks", "2", "--taskgroups", "2", "--quick"]


@pytest.fixture(scope="module")
def run_manifest(tmp_path_factory):
    path = tmp_path_factory.mktemp("analyze") / "run.json"
    assert main(RUN + ["--manifest", str(path), "--stable-manifest"]) == 0
    return path


@pytest.fixture(scope="module")
def slow_manifest(tmp_path_factory, run_manifest):
    """A hand-perturbed candidate: fft_xy 1.5x slower, runtime 1.3x."""
    doc = json.loads(run_manifest.read_text())
    doc["timing"]["phase_time_s"] *= 1.3
    doc["phases"]["fft_xy"]["time_s"] *= 1.5
    pop = doc.get("analysis", {}).get("pop")
    if pop:
        pop["parallel_efficiency"] *= 0.7
        pop["load_balance"] *= 0.9
    path = tmp_path_factory.mktemp("analyze-slow") / "slow.json"
    path.write_text(json.dumps(doc))
    return path


class TestAnalyzeSingle:
    def test_text_report(self, run_manifest, capsys):
        assert main(["analyze", str(run_manifest)]) == 0
        out = capsys.readouterr().out
        assert "POP efficiency factors" in out
        assert "Critical path" in out
        assert "parallel efficiency" in out

    def test_json_report_is_schema_shaped(self, run_manifest, capsys):
        assert main(["analyze", str(run_manifest), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["analysis"]["schema_version"] == 1
        pop = doc["analysis"]["pop"]
        product = (
            pop["load_balance"]
            * pop["serialization_efficiency"]
            * pop["transfer_efficiency"]
        )
        assert product == pytest.approx(pop["parallel_efficiency"], rel=1e-9)
        crit = doc["analysis"]["critical_path"]
        assert crit["length_s"] == pytest.approx(
            doc["phase_time_s"], rel=1e-9
        )

    def test_markdown_to_file(self, run_manifest, tmp_path, capsys):
        out_path = tmp_path / "analysis.md"
        code = main(
            ["analyze", str(run_manifest), "--format", "markdown",
             "--out", str(out_path)]
        )
        assert code == 0
        assert "analysis written" in capsys.readouterr().out
        text = out_path.read_text()
        assert text.startswith("# Analysis:")
        assert "## POP efficiency factors" in text

    def test_manifest_without_analysis_exits_2(self, run_manifest, tmp_path, capsys):
        doc = json.loads(run_manifest.read_text())
        del doc["analysis"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(doc))
        assert main(["analyze", str(bare)]) == 2
        assert "analysis" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "/nonexistent/run.json"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: no such manifest")


class TestAnalyzePair:
    def test_triage_names_planted_regression(self, run_manifest, slow_manifest, capsys):
        assert main(["analyze", str(run_manifest), str(slow_manifest)]) == 0
        out = capsys.readouterr().out
        assert "verdict: REGRESSION" in out
        assert "dominant phase:  fft_xy" in out

    def test_check_gates_on_regression(self, run_manifest, slow_manifest, capsys):
        code = main(
            ["analyze", str(run_manifest), str(slow_manifest), "--check"]
        )
        assert code == 1
        # self-comparison is neutral, passes
        capsys.readouterr()
        assert main(["analyze", str(run_manifest), str(run_manifest), "--check"]) == 0

    def test_json_pair_report(self, run_manifest, slow_manifest, capsys):
        assert main(
            ["analyze", str(run_manifest), str(slow_manifest), "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "regression"
        assert doc["dominant_phase"] == "fft_xy"
        assert any(f["kind"] == "efficiency_factor" for f in doc["findings"])

    def test_three_manifests_exit_2(self, run_manifest, capsys):
        code = main(["analyze", str(run_manifest)] * 3)
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_check_requires_pair(self, run_manifest, capsys):
        assert main(["analyze", str(run_manifest), "--check"]) == 2
        assert "--check" in capsys.readouterr().err


class TestAnalyzeSweep:
    @pytest.fixture(scope="class")
    def sweep_manifest(self, tmp_path_factory, run_manifest):
        summary = json.loads(run_manifest.read_text())
        doc = {
            "kind": "repro.sweep_manifest",
            "schema_version": 1,
            "created": "(stable)",
            "points": {
                "ranks=2": {
                    "digest": "sha256:0",
                    "phase_time_s": summary["timing"]["phase_time_s"],
                    "failed": False,
                    "summary": summary,
                },
            },
        }
        path = tmp_path_factory.mktemp("sweep") / "sweep.json"
        path.write_text(json.dumps(doc))
        return path

    def test_sweep_text_series(self, sweep_manifest, capsys):
        assert main(["analyze", str(sweep_manifest)]) == 0
        out = capsys.readouterr().out
        assert "par eff" in out
        assert "ranks=2" in out

    def test_sweep_markdown_series(self, sweep_manifest, capsys):
        assert main(["analyze", str(sweep_manifest), "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Sweep efficiency series")


class TestPerfTriageTail:
    def test_diff_prints_triage_verdict(self, run_manifest, slow_manifest, capsys):
        assert main(["perf", "diff", str(run_manifest), str(slow_manifest)]) == 0
        out = capsys.readouterr().out
        assert "triage: REGRESSION" in out
        assert "dominant mover" in out

    def test_check_writes_triage_json(self, run_manifest, slow_manifest,
                                      tmp_path, capsys):
        triage_path = tmp_path / "triage.json"
        code = main(
            ["perf", "check", "--baseline", str(run_manifest),
             str(slow_manifest), "--triage", str(triage_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "verdict: REGRESSION" in err
        doc = json.loads(triage_path.read_text())
        assert doc["verdict"] == "regression"
        assert doc["dominant_phase"] == "fft_xy"


class TestOneLoader:
    """``perf diff``, ``perf check`` and ``analyze`` read run manifests through
    one loader: JSON that is not a valid run manifest is a one-line
    ``error:`` on stderr and exit 2 (``perf diff|check`` used to print a
    ``ManifestError`` traceback)."""

    @pytest.fixture(scope="class")
    def bad_files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("loader")
        nope = tmp / "nope.json"
        nope.write_text(json.dumps({"kind": "nope"}))
        sweep = tmp / "sweep.json"
        assert main(["sweep", "--quick", "--ranks", "1", "--versions", "original",
                     "--taskgroups", "2", "--stable", "--out", str(sweep)]) == 0
        return {"nope": nope, "sweep": sweep}

    @pytest.mark.parametrize("bad", ["nope", "sweep"])
    @pytest.mark.parametrize(
        "command",
        [["perf", "diff"], ["perf", "check", "--baseline"], ["analyze"]],
        ids=["perf-diff", "perf-check", "analyze"],
    )
    @pytest.mark.parametrize("position", [0, 1])
    def test_invalid_run_manifest_is_a_one_line_error(
        self, command, bad, position, bad_files, run_manifest, capsys
    ):
        files = [str(run_manifest), str(run_manifest)]
        files[position] = str(bad_files[bad])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(command + files)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad_files[bad]}: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_analyze_single_rejects_an_unknown_kind(self, bad_files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(bad_files["nope"])])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")
