"""One recorder: a run records each record into exactly one ``Trace``.

Telemetry off, the driver records into the caller's ``trace=``; telemetry on,
into the session's ``trace``.  Both must hold the same records, list by list,
and a request for both is refused before the run is built.
"""

import dataclasses

import pytest

from repro import telemetry
from repro.core import RunConfig, run_fft_phase, trace_run
from repro.faults import FaultScenario
from repro.telemetry import Trace

SMALL = dict(ecutwfc=12.0, alat=5.0, nbnd=8)

CASES = {
    "ompss_perfft": (
        RunConfig(**SMALL, ranks=2, taskgroups=2, version="ompss_perfft"),
        None,
    ),
    "pencil_two_nodes": (
        RunConfig(**SMALL, ranks=4, taskgroups=2, decomposition="pencil", n_nodes=2),
        None,
    ),
    "resumed_once": (
        RunConfig(**SMALL, ranks=2, taskgroups=2, version="ompss_perfft"),
        FaultScenario(kill_transfer=5, max_resumes=1),
    ),
}


def _attempts_in(trace: Trace) -> int:
    """Attempts whose records the trace holds: each attempt simulates from
    time zero, and within one the compute records arrive in end order."""
    ends = [r.end for r in trace.compute]
    return 1 + sum(b < a for a, b in zip(ends, ends[1:]))


@pytest.mark.parametrize("case", sorted(CASES))
def test_telemetry_off_and_on_record_the_same_trace(case):
    config, faults = CASES[case]
    off = Trace()
    plain = run_fft_phase(config, faults=faults, trace=off)
    on = run_fft_phase(dataclasses.replace(config, telemetry=True), faults=faults)
    assert plain.telemetry is None
    assert on.telemetry.trace is not off
    assert off.compute and off.mpi
    assert off.compute == on.telemetry.trace.compute
    assert off.mpi == on.telemetry.trace.mpi
    assert off.tasks == on.telemetry.trace.tasks
    expected_attempts = 2 if faults is not None else 1
    assert plain.n_attempts == on.n_attempts == expected_attempts
    assert _attempts_in(off) == expected_attempts


def test_telemetry_on_trace_run_records_each_call_once():
    config, _faults = CASES["ompss_perfft"]
    result, trace = trace_run(dataclasses.replace(config, telemetry=True))
    assert trace is result.telemetry.trace
    assert trace.tasks
    assert len(trace.mpi) == result.telemetry.metrics.total("mpi.calls")


def test_telemetry_off_trace_run_hands_its_trace_to_the_layers():
    config, _faults = CASES["ompss_perfft"]
    result, trace = trace_run(config)
    assert result.telemetry is None
    assert result.cpu.trace is trace and result.world.trace is trace
    assert trace.compute and trace.mpi and trace.tasks


class TestConflictingRecorders:
    """``trace=`` on a run whose session is enabled is refused up front."""

    @pytest.fixture()
    def no_simulator(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            "repro.core.driver.Simulator", lambda *a, **k: built.append(1)
        )
        return built

    def test_config_telemetry_and_trace(self, no_simulator):
        config = RunConfig(**SMALL, ranks=2, taskgroups=2, telemetry=True)
        with pytest.raises(ValueError, match="trace=.*telemetry"):
            run_fft_phase(config, trace=Trace())
        assert no_simulator == []

    def test_ambient_session_and_trace(self, no_simulator):
        config = RunConfig(**SMALL, ranks=2, taskgroups=2)
        with telemetry.session():
            with pytest.raises(ValueError, match="trace=.*telemetry"):
                run_fft_phase(config, trace=Trace())
        assert no_simulator == []

    def test_disabled_session_takes_the_callers_trace(self):
        config = RunConfig(**SMALL, ranks=2, taskgroups=2)
        trace = Trace()
        result = run_fft_phase(
            config, telemetry=telemetry.Telemetry(enabled=False), trace=trace
        )
        assert trace.compute and trace.mpi
        assert not result.telemetry.trace.compute
