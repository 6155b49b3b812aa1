"""Regression triage on synthetic manifest pairs with planted blame."""

import pytest

from repro.analysis.triage import triage_pair


def manifest(label="cfg", phase_time=1.0, phases=None, mpi=None,
             pop=None, engine=None):
    doc = {
        "kind": "repro.run_manifest",
        "config": {"label": label},
        "timing": {"phase_time_s": phase_time},
        "phases": phases or {},
        "mpi": mpi or {},
        "average_ipc": 1.0,
    }
    if pop is not None:
        doc["analysis"] = {"pop": pop}
    if engine is not None:
        doc["engine"] = engine
    return doc


BASE_PHASES = {
    "fft_xy": {"time_s": 0.6, "ipc": 1.0},
    "pack": {"time_s": 0.2, "ipc": 0.8},
}
BASE_POP = {
    "parallel_efficiency": 0.8,
    "load_balance": 0.95,
    "serialization_efficiency": 0.95,
    "transfer_efficiency": 0.89,
}


class TestTriagePair:
    def test_neutral_on_identical_runs(self):
        a = manifest(phases=BASE_PHASES, pop=BASE_POP)
        report = triage_pair(a, a)
        assert report.verdict == "neutral"
        assert report.runtime_relative == pytest.approx(0.0)
        # only the runtime headline survives; nothing moved
        assert [f.kind for f in report.findings] == ["runtime"]
        assert report.dominant is None

    def test_regression_names_dominant_phase_and_factor(self):
        a = manifest(phases=BASE_PHASES, pop=BASE_POP)
        slow_phases = {
            "fft_xy": {"time_s": 0.9, "ipc": 0.7},  # planted regression
            "pack": {"time_s": 0.2, "ipc": 0.8},
        }
        slow_pop = dict(BASE_POP, parallel_efficiency=0.6, load_balance=0.7)
        b = manifest(phase_time=1.3, phases=slow_phases, pop=slow_pop)
        report = triage_pair(a, b)
        assert report.verdict == "regression"
        assert report.dominant_phase == "fft_xy"
        # load_balance dropped most (0.95 -> 0.70)
        assert report.dominant_factor == "load_balance"
        assert any(f.kind == "runtime" for f in report.findings)

    def test_improvement_verdict(self):
        a = manifest(phases=BASE_PHASES)
        b = manifest(phase_time=0.8, phases=BASE_PHASES)
        assert triage_pair(a, b).verdict == "improvement"

    def test_threshold_widens_neutral_band(self):
        a = manifest(phase_time=1.0, phases=BASE_PHASES)
        b = manifest(phase_time=1.05, phases=BASE_PHASES)
        assert triage_pair(a, b, threshold=0.02).verdict == "regression"
        assert triage_pair(a, b, threshold=0.10).verdict == "neutral"

    def test_negative_threshold_rejected(self):
        a = manifest()
        with pytest.raises(ValueError):
            triage_pair(a, a, threshold=-0.1)

    def test_regressions_are_the_perf_check_lines(self):
        a = manifest(phase_time=1.0, phases={
            "a_small": {"time_s": 0.1}, "b_big": {"time_s": 0.5},
            "d_gone": {"time_s": 0.2},
        })
        b = manifest(phase_time=1.2, phases={
            "a_small": {"time_s": 0.12}, "b_big": {"time_s": 0.8},
            "c_new": {"time_s": 0.1}, "d_gone": {"time_s": 0.0},
        })
        # Runtime first, then phases in name order (not severity order); a
        # phase new in B is no regression.
        assert triage_pair(a, b, threshold=0.05).regressions() == [
            "phase runtime regressed +20.0% (1000.000 ms -> 1200.000 ms), "
            "threshold 5.0%",
            "phase 'a_small' compute time regressed +20.0% (100.000 ms -> 120.000 ms)",
            "phase 'b_big' compute time regressed +60.0% (500.000 ms -> 800.000 ms)",
        ]
        assert triage_pair(a, b, threshold=0.7).regressions() == []

    def test_mpi_layer_finding(self):
        a = manifest(mpi={"scatter": {"time_s": 0.1}})
        b = manifest(phase_time=1.2, mpi={"scatter": {"time_s": 0.3}})
        report = triage_pair(a, b)
        (finding,) = [f for f in report.findings if f.kind == "mpi_layer"]
        assert finding.subject == "scatter"
        assert finding.delta == pytest.approx(0.2)

    def test_counter_findings_never_headline(self):
        engine_a = {"cpu": {"rebalances": 10.0, "events": 100.0}}
        engine_b = {"cpu": {"rebalances": 40.0, "events": 100.0}}
        a = manifest(phases=BASE_PHASES, engine=engine_a)
        b = manifest(
            phase_time=1.3,
            phases={"fft_xy": {"time_s": 0.9, "ipc": 0.7},
                    "pack": {"time_s": 0.2, "ipc": 0.8}},
            engine=engine_b,
        )
        report = triage_pair(a, b)
        counters = [f for f in report.findings if f.kind == "counter"]
        assert counters and counters[0].subject == "engine.cpu.rebalances"
        # a counter explains but never outranks the moved phase
        assert report.dominant.kind == "phase"

    def test_legacy_pop_section_fallback(self):
        a = manifest()
        a["pop"] = dict(BASE_POP)
        b = manifest(phase_time=1.3)
        b["pop"] = dict(BASE_POP, transfer_efficiency=0.5)
        report = triage_pair(a, b)
        assert report.dominant_factor == "transfer_efficiency"

    def test_to_dict_roundtrips_infinities(self):
        a = manifest(phases={"new_phase": {"time_s": 0.0, "ipc": 0.0}})
        b = manifest(phase_time=1.2,
                     phases={"new_phase": {"time_s": 0.2, "ipc": 1.0}})
        doc = triage_pair(a, b).to_dict()
        (finding,) = [f for f in doc["findings"] if f["kind"] == "phase"]
        assert finding["relative"] is None  # inf serialized as null
        assert doc["verdict"] == "regression"
        assert doc["dominant_phase"] == "new_phase"


@pytest.fixture(scope="module")
def version_pair():
    """Manifests of the original and the per-FFT task version (2x2, small)."""
    from repro.core import RunConfig, run_fft_phase
    from repro.telemetry.manifest import build_manifest

    return tuple(
        build_manifest(run_fft_phase(RunConfig(
            ecutwfc=12.0, alat=5.0, nbnd=8, ranks=2, taskgroups=2,
            version=version, telemetry=True,
        )))
        for version in ("original", "ompss_perfft")
    )


def _finding(report, kind, subject):
    (finding,) = [
        f for f in report.findings if f.kind == kind and f.subject == subject
    ]
    return finding


class TestVersionPair:
    """The ``compare`` pair: original (pack layer) vs ompss_perfft (none)."""

    def test_self_comparison_is_neutral(self, version_pair):
        a, _b = version_pair
        report = triage_pair(a, a)
        assert report.verdict == "neutral"
        assert report.regressions() == []
        assert [f.kind for f in report.findings] == ["runtime"]

    def test_cross_version_layers(self, version_pair):
        a, b = version_pair
        report = triage_pair(a, b)
        # The original has both MPI layers; the per-FFT version has no pack.
        assert sorted(a["mpi"]) == ["pack", "scatter"] and sorted(b["mpi"]) == ["scatter"]
        pack = _finding(report, "mpi_layer", "pack")
        assert pack.value_a > 0 and pack.value_b == 0.0
        assert _finding(report, "mpi_layer", "scatter").value_b > 0

    def test_phase_union_includes_disappearing_phases(self, version_pair):
        a, b = version_pair
        pack = _finding(triage_pair(a, b), "phase", "pack_sticks")  # A only
        assert pack.value_b == 0.0
        assert pack.relative == -1.0

    def test_new_phase_relative_serialises_as_none(self, version_pair):
        a, b = version_pair
        pack = _finding(triage_pair(b, a), "phase", "pack_sticks")
        assert pack.relative == float("inf")
        (doc,) = [
            f for f in triage_pair(b, a).to_dict()["findings"]
            if f["subject"] == "pack_sticks"
        ]
        assert doc["relative"] is None

    def test_regressions_name_phases_over_the_threshold(self, version_pair):
        a, b = version_pair
        lines = triage_pair(a, b, threshold=0.05).regressions()
        # The runtime grew by less than 5 %; of the phases only the task
        # version's longer prepare_psis grew by more (dropped ones never count).
        assert len(lines) == 1
        assert lines[0].startswith("phase 'prepare_psis' compute time regressed +")
