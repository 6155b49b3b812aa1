"""Unit tests for simkit processes and condition events."""

import pytest

from repro.simkit import AllOf, DeadlockError, Event, Simulator
from tests.simkit.helpers import run_value


@pytest.fixture()
def sim():
    return Simulator()


class TestProcessBasics:
    def test_process_return_value(self, sim):
        def body():
            yield sim.timeout(1)
            return "done"

        assert run_value(sim, sim.process(body())) == "done"

    def test_requires_generator(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_processes_interleave_by_time(self, sim):
        log = []

        def worker(name, delay):
            yield sim.timeout(delay)
            log.append((name, sim.now))

        sim.process(worker("slow", 3))
        sim.process(worker("fast", 1))
        sim.run()
        assert log == [("fast", 1), ("slow", 3)]

    def test_process_waits_on_process(self, sim):
        def child():
            yield sim.timeout(2)
            return 7

        def parent():
            value = yield sim.process(child())
            return value + 1

        assert run_value(sim, sim.process(parent())) == 8

    def test_exception_propagates_to_waiter(self, sim):
        def child():
            yield sim.timeout(1)
            raise ValueError("child died")

        def parent():
            try:
                yield sim.process(child())
            except ValueError as exc:
                return str(exc)

        assert run_value(sim, sim.process(parent())) == "child died"

    def test_unwaited_process_failure_raises_from_run(self, sim):
        def child():
            yield sim.timeout(1)
            raise ValueError("unobserved")

        sim.process(child())
        with pytest.raises(ValueError, match="unobserved"):
            sim.run()

    def test_yield_non_event_fails_process(self, sim):
        def body():
            yield 42  # type: ignore[misc]

        proc = sim.process(body())
        with pytest.raises(RuntimeError, match="non-event"):
            sim.run()
        assert proc.triggered

    def test_immediate_return_process(self, sim):
        def body():
            return "instant"
            yield  # pragma: no cover

        proc = sim.process(body())
        assert run_value(sim, proc) == "instant"


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        def body():
            t1 = sim.timeout(1, value="a")
            t2 = sim.timeout(3, value="b")
            yield AllOf(sim, [t1, t2])
            return (sim.now, [t1.value, t2.value])

        assert run_value(sim, sim.process(body())) == (3, ["a", "b"])

    def test_all_of_empty_fires_immediately(self, sim):
        def body():
            yield AllOf(sim, [])
            return sim.now

        assert run_value(sim, sim.process(body())) == 0

    def test_all_of_propagates_failure(self, sim):
        def failing():
            yield sim.timeout(1)
            raise RuntimeError("member failed")

        def body():
            yield AllOf(sim, [sim.process(failing()), sim.timeout(5)])

        sim.process(body())
        with pytest.raises(RuntimeError, match="member failed"):
            sim.run()

    def test_mixed_simulators_rejected(self, sim):
        other = Simulator()
        with pytest.raises(ValueError):
            AllOf(sim, [sim.timeout(1), other.timeout(1)])


class TestDeadlockDetection:
    def test_blocked_process_raises_deadlock(self, sim):
        ev = Event(sim, "never")

        def body():
            yield ev

        sim.process(body())
        with pytest.raises(DeadlockError):
            sim.run()

    def test_deadlock_message_names_processes(self, sim):
        ev = Event(sim, "never")

        def body():
            yield ev

        sim.process(body(), name="stuck-rank")
        with pytest.raises(DeadlockError, match="stuck-rank"):
            sim.run()
