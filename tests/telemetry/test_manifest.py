"""Run-manifest build / validate / write / load."""

import copy
import json
import pathlib

import pytest

from repro.core import RunConfig, run_fft_phase
from repro.telemetry.manifest import (
    MANIFEST_KIND,
    MANIFEST_SCHEMA_VERSION,
    ManifestError,
    build_manifest,
    load_manifest,
    validate_manifest,
    write_manifest,
)

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8, ranks=2, taskgroups=2)


@pytest.fixture(scope="module")
def result():
    return run_fft_phase(RunConfig(version="original", telemetry=True, **SMALL))


@pytest.fixture(scope="module")
def manifest(result):
    return build_manifest(result, wall_time_s=0.5, created="2026-01-01T00:00:00")


class TestBuildManifest:
    def test_identity_and_config(self, result, manifest):
        assert manifest["kind"] == MANIFEST_KIND
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION
        cfg = manifest["config"]
        assert cfg["version"] == "original"
        assert cfg["ranks"] == 2 and cfg["taskgroups"] == 2
        assert cfg["label"] == result.config.label()
        assert cfg["n_mpi_ranks"] == result.config.n_mpi_ranks
        assert cfg["total_streams"] == result.config.total_streams

    def test_timing(self, result, manifest):
        assert manifest["timing"]["phase_time_s"] == pytest.approx(result.phase_time)
        assert manifest["timing"]["wall_time_s"] == 0.5
        assert manifest["timing"]["sim_events"] > 0

    def test_phase_aggregates(self, result, manifest):
        phases = manifest["phases"]
        assert "fft_xy" in phases and "fft_z" in phases
        for entry in phases.values():
            assert entry["time_s"] > 0
            assert entry["ipc"] > 0
        # IPC is consistent with the aggregate it is derived from.
        freq = result.cpu.frequency_hz
        for entry in phases.values():
            assert entry["ipc"] == pytest.approx(
                entry["instructions"] / (entry["time_s"] * freq)
            )

    def test_mpi_aggregates(self, result, manifest):
        mpi = manifest["mpi"]
        assert mpi, "telemetry run must produce MPI aggregates"
        total_calls = sum(entry["calls"] for entry in mpi.values())
        assert total_calls == len(result.telemetry.trace.mpi)
        # Layer names have trailing digits stripped (pack0, pack1 -> pack).
        assert all(not layer[-1].isdigit() for layer in mpi)

    def test_metrics_snapshot_embedded(self, result, manifest):
        assert manifest["metrics"] == result.telemetry.metrics.snapshot()
        assert "mpi.calls" in manifest["metrics"]

    def test_average_ipc(self, result, manifest):
        assert manifest["average_ipc"] == pytest.approx(result.average_ipc)

    def test_no_pop_without_factors(self, manifest):
        assert "pop" not in manifest

    def test_json_serialisable(self, manifest):
        json.dumps(manifest)


class TestValidateManifest:
    def test_valid(self, manifest):
        assert validate_manifest(manifest) == []

    def test_not_a_dict(self):
        assert validate_manifest([1, 2]) == ["manifest must be a JSON object"]

    def test_missing_required_field(self, manifest):
        broken = copy.deepcopy(manifest)
        del broken["timing"]
        errors = validate_manifest(broken)
        assert any("timing" in e for e in errors)

    def test_wrong_type(self, manifest):
        broken = copy.deepcopy(manifest)
        broken["config"]["ranks"] = "eight"
        errors = validate_manifest(broken)
        assert any("config.ranks" in e for e in errors)

    def test_wrong_kind(self, manifest):
        broken = copy.deepcopy(manifest)
        broken["kind"] = "something.else"
        assert any("kind" in e for e in validate_manifest(broken))

    def test_newer_schema_rejected(self, manifest):
        broken = copy.deepcopy(manifest)
        broken["schema_version"] = MANIFEST_SCHEMA_VERSION + 1
        assert any("newer" in e for e in validate_manifest(broken))

    def test_negative_phase_time_rejected(self, manifest):
        broken = copy.deepcopy(manifest)
        broken["timing"]["phase_time_s"] = -1.0
        assert any("phase_time_s" in e for e in validate_manifest(broken))

    def test_phase_entry_without_time_rejected(self, manifest):
        broken = copy.deepcopy(manifest)
        broken["phases"]["fft_xy"] = {"ipc": 0.8}
        assert any("fft_xy" in e for e in validate_manifest(broken))


class TestWriteLoad:
    def test_roundtrip(self, manifest, tmp_path):
        path = write_manifest(tmp_path / "run", manifest)
        assert path.suffix == ".json"
        assert load_manifest(path) == manifest

    def test_write_rejects_invalid(self, manifest, tmp_path):
        broken = copy.deepcopy(manifest)
        del broken["phases"]
        with pytest.raises(ManifestError):
            write_manifest(tmp_path / "bad.json", broken)

    def test_load_rejects_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "nope"}))
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_schema_mirror_stays_in_sync(self):
        """Each ``docs/*_manifest.schema.json`` documents the rules the code
        enforces, nested ones included: every ``_RULES`` path resolves to a
        schema property whose ``type`` admits the rule's Python types, and
        every required rule is ``required`` at its level there."""
        import importlib

        json_names = {
            dict: "object", list: "array", str: "string", bool: "boolean",
            int: "integer", float: "number", type(None): "null",
        }
        docs = pathlib.Path(__file__).parents[2] / "docs"
        for name, module_name in (
            ("run", "repro.telemetry.manifest"),
            ("sweep", "repro.sweep.manifest"),
        ):
            module = importlib.import_module(module_name)
            schema = json.loads((docs / f"{name}_manifest.schema.json").read_text())
            (kind,) = (
                v for k, v in vars(module).items() if k.endswith("MANIFEST_KIND")
            )
            assert schema["properties"]["kind"]["const"] == kind
            for dotted, types, required in module._RULES:
                node = schema
                *parents, leaf = dotted.split(".")
                for part in parents:
                    node = node["properties"][part]
                assert leaf in node["properties"], f"{name}: {dotted} undocumented"
                if required:
                    assert leaf in node["required"], f"{name}: {dotted} not required"
                declared = node["properties"][leaf].get("type")
                if declared is None:  # const / enum leaves
                    continue
                declared = {declared} if isinstance(declared, str) else set(declared)
                if "number" in declared:
                    declared.add("integer")
                assert {json_names[t] for t in types} <= declared, f"{name}: {dotted}"


#: Written by the tree before the top-level ``pop`` section went (PR 22,
#: ``build_manifest(factors=...)`` on the SMALL 2x2 ``original`` run).
LEGACY = pathlib.Path(__file__).parent / "fixtures/manifest_pr22_with_pop.json"


class TestManifestsWrittenBeforeTheMerge:
    def test_fixture_is_the_two_section_kind(self):
        legacy = json.loads(LEGACY.read_text())
        assert legacy["pop"]["ideal_time_s"] > 0
        assert legacy["analysis"]["pop"]["split_source"] == "estimate"

    def test_still_validates_diffs_and_triages(self, manifest, tmp_path, capsys):
        from repro.cli import main

        # The legacy manifest also carries three RunConfig fields retired
        # since (per-link fabric capacity, per-step worker count, task
        # overhead): readers must take it as it is.
        retired = {"link_capacity", "steps_workers", "task_overhead"}
        assert retired <= load_manifest(LEGACY)["config"].keys()
        assert not retired & manifest["config"].keys()
        new = write_manifest(tmp_path / "new.json", manifest)
        assert main(["perf", "validate", str(LEGACY)]) == 0
        assert main(["perf", "diff", str(LEGACY), str(new)]) == 0
        out = capsys.readouterr().out
        # Same seeded run, same simulated time and factors: only the
        # runtime headline, nothing moved.
        assert "verdict: NEUTRAL" in out
        assert "efficiency_factor" not in out
        assert main(["perf", "check", "--baseline", str(LEGACY), str(new)]) == 0
        assert main(["analyze", str(LEGACY), str(new)]) == 0

    def test_top_level_pop_is_read_only_as_the_fallback(self, manifest):
        from repro.analysis import analyze_pair

        def moved_factors(baseline):
            """Factor -> baseline value, for each factor the triage saw move."""
            return {
                f.subject: f.value_a for f in analyze_pair(baseline, manifest).findings
                if f.kind == "efficiency_factor"
            }

        legacy = load_manifest(LEGACY)
        # The two sections disagree on the transfer factor ...
        assert legacy["pop"]["transfer_efficiency"] != (
            legacy["analysis"]["pop"]["transfer_efficiency"]
        )
        # ... analysis.pop wins where a manifest carries both (it is the
        # same seeded run's, so nothing moved) ...
        assert moved_factors(legacy) == {}
        # ... and a summary reduced to the old section alone still triages.
        old = {k: v for k, v in legacy.items() if k != "analysis"}
        assert validate_manifest(old) == []
        assert moved_factors(old) == {
            "transfer_efficiency": legacy["pop"]["transfer_efficiency"]
        }
