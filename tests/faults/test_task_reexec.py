"""Transient task failures in the OmpSs executors: re-execution and abort.

Re-execution is exercised through ``ompss_steps`` / ``ompss_combined``, whose
compute-stage tasks are communication-free (idempotent bodies, safe to
replay).  ``ompss_perfft`` whole-band tasks perform MPI and are exempt from
injection (``Task.did_mpi``): replaying a matched collective would deadlock.
"""

import pytest

from repro.core import RunConfig, run_fft_phase
from repro.faults import FaultScenario

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)


def run(version, faults, **kwargs):
    cfg = RunConfig(**SMALL, ranks=2, taskgroups=2, version=version, **kwargs)
    return run_fft_phase(cfg, faults=faults)


@pytest.mark.parametrize("version", ["ompss_steps", "ompss_combined"])
class TestReExecution:
    def test_failed_tasks_reexecute_and_validate(self, version):
        scenario = FaultScenario(task_failure_rate=1.0, task_max_failures=3)
        res = run(version, scenario, data_mode=True)
        assert not res.failed
        counters = res.fault_report["counters"]
        assert counters["task_failure"] == 3
        assert counters["task_recovered"] == 3
        assert res.validate() < 1e-10

    def test_reexecution_costs_simulated_time(self, version):
        base = run(version, None).phase_time
        scenario = FaultScenario(task_failure_rate=1.0, task_max_failures=3)
        assert run(version, scenario).phase_time > base


@pytest.mark.parametrize("decomposition", ["slab", "pencil"])
@pytest.mark.parametrize("version", ["ompss_steps", "ompss_combined"])
def test_replayed_vofr_applies_the_potential_once(version, decomposition):
    """Regression: the communication-free VOFR task multiplied its
    predecessor's block in place, so a replay applied V twice and the run
    came back ``failed=False`` with O(0.1) error.  At this failure rate
    some VOFR execution is discarded and replayed in every cell."""
    scenario = FaultScenario(task_failure_rate=0.3, task_max_retries=50)
    cfg = RunConfig(
        **SMALL, ranks=4, taskgroups=2, version=version, data_mode=True,
        decomposition=decomposition,
    )
    res = run_fft_phase(cfg, faults=scenario)
    assert not res.failed
    assert res.fault_report["counters"]["task_recovered"] > 10
    assert res.validate() < 1e-10


class TestAbort:
    def test_retry_budget_exhaustion_aborts_structurally(self):
        # Every completion fails and only 1 retry is allowed: the second
        # failure of the same task aborts the run with a structured report.
        scenario = FaultScenario(
            task_failure_rate=1.0, task_max_retries=1, max_resumes=0
        )
        res = run("ompss_steps", scenario)
        assert res.failed
        assert "TaskFailedError" in res.fault_report["failure"]
        assert res.fault_report["counters"]["task_abort"] >= 1


class TestMpiTaskExemption:
    def test_perfft_band_tasks_are_never_discarded(self):
        # ompss_perfft tasks all contain collectives, so with did_mpi
        # exemption a 100% failure rate injects nothing and numerics hold.
        scenario = FaultScenario(task_failure_rate=1.0)
        res = run("ompss_perfft", scenario, data_mode=True)
        assert not res.failed
        assert res.fault_report["counters"].get("task_failure", 0) == 0
        assert res.validate() < 1e-10
