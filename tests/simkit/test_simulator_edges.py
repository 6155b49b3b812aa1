"""Edge-case tests for the simulator facade."""

import pytest

from repro.simkit import DeadlockError, Event, Simulator


class TestSimulatorEdges:
    def test_independent_simulators_do_not_interact(self):
        a, b = Simulator(), Simulator()

        def body(sim, log):
            yield sim.timeout(1.0)
            log.append(sim.now)

        log_a, log_b = [], []
        a.process(body(a, log_a))
        b.process(body(b, log_b))
        a.run()
        assert log_a == [1.0] and log_b == []
        b.run()
        assert log_b == [1.0]


class TestSameTimestampOrdering:
    def test_same_timestamp_events_dispatch_in_schedule_order(self):
        sim = Simulator()
        order = []
        events = [Event(sim, name=f"e{i}") for i in range(4)]

        def waiter(i):
            yield events[i]
            order.append(i)

        for i in range(4):
            sim.process(waiter(i), name=f"w{i}")
        for ev in events:  # all trigger at the same simulated instant
            ev.succeed()
        sim.run()
        assert order == [0, 1, 2, 3]


class TestDeadlockReporting:
    def test_deadlock_message_lists_hung_processes_and_targets(self):
        sim = Simulator()

        def hang(ev):
            yield ev

        sim.process(hang(Event(sim, name="never-b")), name="proc-b")
        sim.process(hang(Event(sim, name="never-a")), name="proc-a")
        with pytest.raises(DeadlockError) as err:
            sim.run()
        message = str(err.value)
        assert "blocked processes" in message
        assert "no pending events" in message
        assert "'proc-a'" in message and "'proc-b'" in message
        assert "never-a" in message and "never-b" in message
        # One line per process, sorted by process name for a stable report.
        assert message.index("proc-a") < message.index("proc-b")

    def test_completed_simulation_does_not_deadlock(self):
        sim = Simulator()

        def body():
            yield sim.timeout(1.0)

        sim.process(body())
        sim.run()  # all processes finish: no DeadlockError
        assert sim.now == 1.0


class TestDispatchCounter:
    def test_counter_starts_at_zero_and_grows(self):
        sim = Simulator()
        assert sim.n_dispatched == 0

        def body():
            for _ in range(5):
                yield sim.timeout(1.0)

        sim.process(body())
        sim.run()
        assert sim.n_dispatched > 0

    def test_identical_workloads_dispatch_identical_counts(self):
        def build():
            sim = Simulator()

            def body():
                for _ in range(3):
                    yield sim.timeout(1.0)

            sim.process(body())
            sim.process(body())
            return sim

        a, b = build(), build()
        a.run()
        b.run()
        assert a.n_dispatched == b.n_dispatched

    def test_counter_preserved_when_deadlock_raises(self):
        sim = Simulator()

        def body():
            yield sim.timeout(1.0)
            yield Event(sim, name="never")

        sim.process(body(), name="stuck")
        with pytest.raises(DeadlockError):
            sim.run()
        assert sim.n_dispatched > 0
