"""Unit tests for simkit event primitives."""

import pytest

from repro.simkit import Event, Simulator, Timeout


@pytest.fixture()
def sim():
    return Simulator()


class TestEventLifecycle:
    def test_fresh_event_is_pending(self, sim):
        ev = Event(sim, "e")
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, sim):
        ev = Event(sim)
        with pytest.raises(RuntimeError):
            _ = ev.value

    def test_succeed_carries_value(self, sim):
        ev = Event(sim)
        ev.succeed(42)
        sim.run()
        assert ev.processed
        assert ev.exception is None
        assert ev.value == 42

    def test_double_succeed_raises(self, sim):
        ev = Event(sim)
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_fail_then_value_raises_original(self, sim):
        ev = Event(sim)
        err = ValueError("boom")
        ev.fail(err)
        ev.defuse()
        sim.run()
        assert ev.exception is err
        with pytest.raises(ValueError, match="boom"):
            _ = ev.value

    def test_fail_requires_exception(self, sim):
        ev = Event(sim)
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_undefused_failure_propagates_from_run(self, sim):
        ev = Event(sim)
        ev.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run()

    def test_callback_after_processed_runs_immediately(self, sim):
        ev = Event(sim)
        ev.succeed("x")
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]


class TestTimeout:
    def test_timeout_advances_clock(self, sim):
        def body():
            yield sim.timeout(2.5)
            return sim.now

        proc = sim.process(body())
        sim.run()
        assert proc.value == 2.5
        assert sim.now == 2.5

    def test_timeout_value(self, sim):
        def body():
            got = yield sim.timeout(1.0, value="payload")
            return got

        proc = sim.process(body())
        sim.run()
        assert proc.value == "payload"

    def test_negative_delay_rejected(self, sim):
        for delay in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="delay must be >= 0"):
                Timeout(sim, delay)
            with pytest.raises(ValueError, match="delay must be >= 0"):
                sim.timeout(delay)

    def test_zero_delay_fires_at_current_time(self, sim):
        def body():
            yield sim.timeout(0.0)
            return sim.now

        proc = sim.process(body())
        sim.run()
        assert proc.value == 0.0

    def test_same_time_events_fire_in_schedule_order(self, sim):
        order = []
        a = sim.timeout(1.0)
        b = sim.timeout(1.0)
        a.add_callback(lambda e: order.append("a"))
        b.add_callback(lambda e: order.append("b"))
        sim.run()
        assert order == ["a", "b"]
