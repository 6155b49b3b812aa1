"""Checkpoint/resume exhaustion: the resume budget runs out mid-phase.

A lossy link (90% drop, one MPI retry) makes every attempt die with a
transfer failure, so with ``max_resumes=2`` the driver burns the full
budget — three attempts, two resumes — and must fail *structurally*:
``RunResult.failed`` set, the attempt ledger complete, and the partial
manifest still schema-valid.  Pinned across all five executors, since
each wires fault injection into a different pipeline shape.
"""

import gc
import sys
import warnings

import pytest

from repro.core import RunConfig, run_fft_phase
from repro.faults import FaultScenario, LinkFault
from repro.telemetry.manifest import build_manifest, validate_manifest

EXECUTORS = ("original", "pipelined", "ompss_perfft", "ompss_steps", "ompss_combined")

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)

#: Every attempt fails fast (drops swamp the single retry), so the run
#: exhausts max_resumes deterministically instead of limping through.
EXHAUSTING = dict(
    links=[LinkFault(drop_probability=0.9)],
    mpi_max_retries=1,
    max_resumes=2,
)


def run(version, **kwargs):
    cfg = RunConfig(**SMALL, ranks=2, taskgroups=2, version=version, **kwargs)
    return run_fft_phase(cfg, faults=FaultScenario(**EXHAUSTING))


@pytest.mark.parametrize("version", EXECUTORS)
class TestResumeExhaustion:
    def test_budget_exhaustion_fails_structurally(self, version):
        res = run(version)
        assert res.failed
        assert res.fault_report["recovered"] is False
        assert "MpiLinkError" in res.fault_report["failure"]

    def test_attempt_ledger_is_complete(self, version):
        res = run(version)
        # max_resumes=2 means 1 fresh attempt + 2 resumes, all failed.
        assert res.n_attempts == 3
        report = res.fault_report
        assert report["counters"]["resume"] == 2
        attempts = report["attempts"]
        assert len(attempts) == 3
        assert all(a["error"] is not None for a in attempts)

    def test_partial_manifest_still_validates(self, version):
        res = run(version, telemetry=True)
        manifest = build_manifest(res, created="(test)")
        assert validate_manifest(manifest) == []
        assert manifest["failed"] is True
        assert manifest["timing"]["n_attempts"] == 3
        assert manifest["fault_report"]["recovered"] is False

    def test_killed_attempts_leave_no_open_span(self, version, monkeypatch):
        """The rank and task generators an aborted attempt kills never leave
        their span blocks; the driver ends those spans where the attempt
        died, so finalization sees a complete tree (no truncated-tree
        ``RuntimeWarning``) — and collecting the dead generators later does
        not try to end them a second time."""
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = run(version, telemetry=True)
        assert res.failed
        spans = res.telemetry.spans.all()
        assert spans and all(s.t_end is not None for s in spans)
        assert all(s.t_begin <= s.t_end for s in spans)
        manifest = build_manifest(res, created="(test)")
        assert validate_manifest(manifest) == []
        assert manifest["failed"] is True
        assert manifest["analysis"]["unclosed_spans"] == 0
        del res
        gc.collect()
        assert unraisable == []


def test_exhaustion_is_deterministic():
    a = run("original")
    b = run("original")
    assert a.fault_report == b.fault_report
