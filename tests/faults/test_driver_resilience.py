"""End-to-end fault injection through the driver: slowdowns, retries,
checkpoint resume, unrecoverable failure, and manifest embedding."""

import pytest

from repro.core import RunConfig, run_fft_phase
from repro.faults import FaultScenario, LinkFault, Straggler
from repro.telemetry.manifest import build_manifest, validate_manifest

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)


def run(version="original", faults=None, **kwargs):
    cfg = RunConfig(**SMALL, ranks=2, taskgroups=2, version=version, **kwargs)
    return run_fft_phase(cfg, faults=faults)


@pytest.fixture(scope="module")
def baseline_time():
    return run().phase_time


class TestNoFaultExactness:
    def test_empty_scenario_matches_no_scenario_exactly(self, baseline_time):
        res = run(faults=FaultScenario())
        assert res.phase_time == baseline_time
        assert res.fault_report is not None
        assert res.fault_report["injected"] == 0
        assert not res.failed

    def test_scenario_via_config_field(self, baseline_time):
        cfg = RunConfig(**SMALL, ranks=2, taskgroups=2, faults=FaultScenario())
        res = run_fft_phase(cfg)
        assert res.phase_time == baseline_time
        assert res.fault_report is not None


class TestSlowdowns:
    def test_straggler_slows_the_run(self, baseline_time):
        res = run(faults=FaultScenario(stragglers=[Straggler(0, 4.0)]))
        assert res.phase_time > baseline_time
        assert not res.failed

    def test_os_noise_slows_the_run(self, baseline_time):
        res = run(faults=FaultScenario(os_noise=0.5))
        assert res.phase_time > baseline_time

    def test_degraded_link_slows_the_run(self, baseline_time):
        res = run(faults=FaultScenario(links=[LinkFault(bandwidth_factor=0.25)]))
        assert res.phase_time > baseline_time
        assert res.fault_report["counters"]["link_degraded"] == 1


class TestRetries:
    def test_drops_are_retransmitted(self, baseline_time):
        res = run(
            faults=FaultScenario(
                links=[LinkFault(drop_probability=0.3)], mpi_max_retries=10
            )
        )
        assert not res.failed
        counters = res.fault_report["counters"]
        assert counters["drop"] > 0
        assert counters["transfer_recovered"] > 0
        assert res.phase_time > baseline_time  # backoff costs simulated time
        assert res.fault_report["recovered"] is True


class TestCheckpointResume:
    def test_kill_with_resume_budget_recovers(self):
        res = run(faults=FaultScenario(kill_transfer=5, max_resumes=1))
        assert not res.failed
        assert res.n_attempts == 2
        report = res.fault_report
        assert report["counters"]["link_kill"] == 1
        assert report["counters"]["resume"] == 1
        assert len(report["attempts"]) == 2
        assert report["attempts"][0]["error"] is not None
        assert report["attempts"][1]["error"] is None
        assert report["recovered"] is True

    def test_kill_without_budget_fails_structurally(self):
        res = run(faults=FaultScenario(kill_transfer=5, max_resumes=0))
        assert res.failed
        assert res.fault_report["recovered"] is False
        assert "MpiLinkError" in res.fault_report["failure"]

    def test_timeout_fails_structurally(self):
        res = run(
            faults=FaultScenario(
                links=[LinkFault(drop_probability=0.9)],
                mpi_max_retries=50,
                mpi_retry_backoff_s=1.0e-3,
                mpi_timeout_s=2.0e-3,
                max_resumes=0,
            )
        )
        assert res.failed
        assert "MpiTimeoutError" in res.fault_report["failure"]

    def test_resumed_data_run_still_validates(self):
        """A killed and resumed data-mode run ends with the output bytes of
        a fault-free run: slab and pencil, task groups on and off."""
        for decomposition, taskgroups in (
            ("slab", 2), ("pencil", 2), ("slab", 1), ("pencil", 1),
        ):
            shape = dict(
                ranks=4, taskgroups=taskgroups, data_mode=True, decomposition=decomposition
            )
            clean = run_fft_phase(RunConfig(**SMALL, **shape))
            res = run_fft_phase(
                RunConfig(**SMALL, **shape),
                faults=FaultScenario(kill_transfer=5, max_resumes=1),
            )
            assert res.n_attempts == 2, (decomposition, taskgroups)
            assert res.validate() < 1e-10
            assert (
                res.output_coefficients().tobytes() == clean.output_coefficients().tobytes()
            ), (decomposition, taskgroups)


class TestDeterminism:
    def test_identical_faulted_runs_are_identical(self):
        scenario = FaultScenario(
            seed=3,
            stragglers=[Straggler(1, 2.0)],
            links=[LinkFault(drop_probability=0.2)],
            mpi_max_retries=10,
        )
        a = run(faults=scenario)
        b = run(faults=scenario)
        assert a.phase_time == b.phase_time
        assert a.fault_report == b.fault_report


class TestManifestEmbedding:
    def test_faulted_manifest_validates(self):
        res = run(faults=FaultScenario(kill_transfer=5, max_resumes=1), telemetry=True)
        manifest = build_manifest(res, created="(test)")
        assert validate_manifest(manifest) == []
        assert manifest["timing"]["n_attempts"] == 2
        assert manifest["failed"] is False
        assert manifest["fault_report"]["counters"]["resume"] == 1

    def test_unfaulted_manifest_has_no_report(self):
        cfg = RunConfig(**SMALL, ranks=2, taskgroups=2, telemetry=True)
        manifest = build_manifest(run_fft_phase(cfg), created="(test)")
        assert "fault_report" not in manifest
        assert "failed" not in manifest
        assert validate_manifest(manifest) == []
