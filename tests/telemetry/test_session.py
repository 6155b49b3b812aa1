"""Session mechanics: current()/install()/session() and the disabled default."""

import pytest

from repro import telemetry
from repro.core import RunConfig, run_fft_phase


class TestSession:
    def test_default_is_disabled_singleton(self):
        tel = telemetry.current()
        assert not tel.enabled
        assert tel is telemetry.current()

    def test_disabled_default_refuses_writes(self):
        tel = telemetry.current()
        tel.metrics.count("leak", 1.0)
        tel.spans.add("t", "leak", "c", 0.0, 1.0)
        assert tel.metrics.families() == []
        assert len(tel.spans) == 0

    def test_install_and_restore(self):
        mine = telemetry.Telemetry(enabled=True)
        previous = telemetry.install(mine)
        try:
            assert telemetry.current() is mine
        finally:
            telemetry.install(previous)
        assert telemetry.current() is previous

    def test_install_none_restores_disabled_default(self):
        mine = telemetry.Telemetry(enabled=True)
        telemetry.install(mine)
        telemetry.install(None)
        assert not telemetry.current().enabled

    def test_session_context_manager(self):
        before = telemetry.current()
        with telemetry.session() as tel:
            assert tel.enabled
            assert telemetry.current() is tel
            tel.metrics.count("x", 2.0)
        assert telemetry.current() is before
        assert tel.metrics.total("x") == 2.0

    def test_session_restores_on_exception(self):
        before = telemetry.current()
        with pytest.raises(RuntimeError):
            with telemetry.session():
                raise RuntimeError("boom")
        assert telemetry.current() is before

    def test_sessions_nest(self):
        with telemetry.session() as outer:
            with telemetry.session() as inner:
                assert telemetry.current() is inner
            assert telemetry.current() is outer

    def test_span_shorthand(self):
        tel = telemetry.Telemetry(enabled=True)
        clock = [1.0]
        with tel.span("driver", "run", "run", lambda: clock[0]):
            clock[0] = 2.0
        (s,) = tel.spans.closed()
        assert (s.name, s.t_begin, s.t_end) == ("run", 1.0, 2.0)


class TestAmbientSession:
    """The module docstring's example: a run inside ``session()`` reports
    into that session exactly as a run handed it explicitly."""

    CONFIG = RunConfig(ecutwfc=12.0, alat=5.0, nbnd=8, ranks=2, taskgroups=2)

    def test_driver_adopts_the_current_enabled_session(self):
        with telemetry.session() as tel:
            result = run_fft_phase(self.CONFIG)
        explicit = run_fft_phase(self.CONFIG, telemetry=telemetry.Telemetry())
        assert result.telemetry is tel
        assert tel.metrics.total("mpi.bytes_sent") > 0.0
        assert tel.metrics.total("mpi.bytes_sent") == explicit.telemetry.metrics.total(
            "mpi.bytes_sent"
        )
        assert len(tel.trace.mpi) == len(explicit.telemetry.trace.mpi)
        assert tel.analysis is not None

    def test_disabled_current_session_is_not_adopted(self):
        assert run_fft_phase(self.CONFIG).telemetry is None


class TestAttemptEnd:
    def test_a_fold_that_raises_still_restores_the_previous_session(self, monkeypatch):
        def broken_fold(self):
            raise ValueError("counters only go up")

        monkeypatch.setattr(telemetry.Telemetry, "fold_records", broken_fold)
        before = telemetry.current()
        with pytest.raises(ValueError, match="only go up"):
            run_fft_phase(TestAmbientSession.CONFIG, telemetry=telemetry.Telemetry())
        assert telemetry.current() is before
