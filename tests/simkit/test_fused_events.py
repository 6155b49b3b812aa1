"""Event-contract tests of the fused completion paths (DESIGN.md).

A fluid task's ``done`` is completed in place by the resource's timer, and
deferred rebalances are an end-of-timestep hook of the run loop rather than
heap entries.  Neither may change *when* or *in which order* anything
observable happens — these tests pin the orders and the edge cases the
fusion could have moved.
"""

import pytest

from repro.machine import CpuModel, NodeTopology, PhaseProfile, PhaseTable
from repro.simkit import (
    EqualShareAllocator,
    EventCancelled,
    FluidResource,
    Interrupt,
    Simulator,
)


@pytest.fixture()
def sim():
    return Simulator()


class TestInlineCompletion:
    def test_same_timestamp_finishers_complete_in_active_set_order(self, sim):
        """Three equal tasks end at the same instant: waiters resume in
        submit order, after every earlier-scheduled event of that timestamp
        and before anything the resumed processes schedule for it."""
        cpu = FluidResource(sim, EqualShareAllocator(3.0), name="cpu")
        order = []

        def early():
            yield sim.timeout(2.0)  # scheduled before the completion timer
            order.append("early")

        def worker(k):
            yield cpu.submit(2.0).done  # rate 1 each: all end at t = 2
            order.append(k)
            yield sim.timeout(0.0)
            order.append(f"{k}-after")

        sim.process(early())
        for k in range(3):
            sim.process(worker(k))
        sim.run()
        assert order == ["early", 0, 1, 2, "0-after", "1-after", "2-after"]
        assert sim.now == 2.0

    def test_jitter_draws_follow_the_finish_order(self, sim):
        """Resubmits out of an in-place completion draw the jitter RNG in
        stream order, round after round."""
        topo = NodeTopology(n_cores=4, threads_per_core=1, frequency_hz=1.0e9)
        table = PhaseTable([PhaseProfile("work", ipc0=1.0, bytes_per_instr=0.0)])
        cpu = CpuModel(sim, topo, table, bandwidth_bytes_per_s=1.0e12, jitter=0.1)
        draws = []

        class MidpointRng:
            """Every draw yields speed exactly 1.0, so all streams stay in
            lock-step and every round is a four-way same-timestamp finish."""

            def random(self):
                draws.append(sim.active_process.name)
                return 0.5

        cpu._rng = MidpointRng()
        placement = topo.place(4)

        def stream(k):
            for _ in range(3):
                yield cpu.compute(k, placement[k], "work", 1.0e9)

        for k in range(4):
            sim.process(stream(k), name=f"s{k}")
        sim.run()
        assert draws == [f"s{k}" for k in range(4)] * 3
        assert sim.now == pytest.approx(3.0)

    def test_run_until_an_inline_processed_event(self, sim):
        """``run(until=task.done)`` returns at the completion although the
        event never sat on the heap; the pending rebalance is left for the
        next ``run``."""
        cpu = FluidResource(sim, EqualShareAllocator(2.0), name="cpu")
        short = cpu.submit(2.0)
        long = cpu.submit(6.0)
        assert sim.run(until=short.done) is short
        assert sim.now == 2.0 and short.done.processed
        assert sim.run(until=long.done) is long
        assert sim.now == 4.0  # 2 s shared, then 4 units at the full rate 2

    def test_completion_callback_may_resubmit_and_cancel(self, sim):
        """Callbacks run after the engine state is consistent: they can
        re-enter ``submit`` and ``cancel`` of the very resource completing."""
        cpu = FluidResource(sim, EqualShareAllocator(2.0), name="cpu")
        first = cpu.submit(2.0)
        victim = cpu.submit(10.0)
        follow_up = []

        def on_done(_ev):
            cpu.cancel(victim)
            follow_up.append(cpu.submit(4.0))

        first.done.add_callback(on_done)
        victim.done.defuse()
        sim.run()
        assert isinstance(victim.done.exception, EventCancelled)
        assert victim.remaining == pytest.approx(8.0)
        assert follow_up[0].finish_time == pytest.approx(2.0 + 4.0 / 2.0)
        stats = cpu.stats()
        # Finish + cancel + resubmit at t = 2 are one rebalance.
        assert stats["n_rebalances"] == 3 and stats["n_coalesced"] == 3

    def test_cancel_of_an_active_task_still_goes_through_the_heap(self, sim):
        cpu = FluidResource(sim, EqualShareAllocator(1.0), name="cpu")
        seen = []

        def waiter():
            task = cpu.submit(10.0)
            sim.process(killer(task))
            try:
                yield task.done
            except EventCancelled:
                seen.append(("cancelled", sim.now, task.remaining))

        def killer(task):
            yield sim.timeout(4.0)
            cpu.cancel(task)
            seen.append(("cancel-returned", sim.now))

        sim.process(waiter())
        sim.run()
        assert seen == [("cancel-returned", 4.0), ("cancelled", 4.0, pytest.approx(6.0))]

    def test_interrupted_waiter_detaches_from_an_inline_completion(self, sim):
        cpu = FluidResource(sim, EqualShareAllocator(1.0), name="cpu")
        log = []

        def waiter():
            task = cpu.submit(5.0)
            try:
                yield task.done
            except Interrupt as exc:
                log.append(("interrupted", sim.now, exc.cause))
            yield sim.timeout(10.0)
            log.append(("done", sim.now, task.finish_time))

        proc = sim.process(waiter())

        def interrupter():
            yield sim.timeout(1.0)
            proc.interrupt("stop")

        sim.process(interrupter())
        sim.run()
        # The task still finishes at t = 5; nobody is resumed by it.
        assert log == [("interrupted", 1.0, "stop"), ("done", 11.0, 5.0)]


class TestDeferredHook:
    def test_runs_after_same_time_events_scheduled_later(self, sim):
        order = []
        sim.defer(lambda: order.append("deferred"))
        sim.timeout(0.0).add_callback(lambda _e: order.append("event"))
        sim.timeout(1.0).add_callback(lambda _e: order.append("later"))
        sim.run()
        assert order == ["event", "deferred", "later"]

    def test_callbacks_run_one_at_a_time_in_call_order(self, sim):
        """An event the first callback schedules for the current time runs
        before the second callback — the order the heap used to produce."""
        order = []

        def first():
            order.append("first")
            sim.timeout(0.0).add_callback(lambda _e: order.append("spawned"))

        sim.defer(first)
        sim.defer(lambda: order.append("second"))
        sim.run()
        assert order == ["first", "spawned", "second"]

    def test_deferred_callbacks_are_not_dispatched_events(self, sim):
        sim.timeout(1.0)
        sim.defer(lambda: None)
        sim.run()
        assert sim.n_dispatched == 1

    def test_run_until_time_drains_the_timestep_first(self, sim):
        order = []

        def at_two(_ev):
            sim.defer(lambda: order.append(("deferred", sim.now)))

        sim.timeout(2.0).add_callback(at_two)
        sim.timeout(3.0).add_callback(lambda _e: order.append(("three", sim.now)))
        sim.run(until=2.0)
        assert order == [("deferred", 2.0)]
        assert sim.peek() == 3.0

    def test_step_and_peek_see_a_pending_callback(self, sim):
        order = []
        sim.timeout(1.0).add_callback(lambda _e: order.append("event"))
        sim.defer(lambda: order.append("deferred"))
        assert sim.peek() == 0.0
        sim.step()
        assert order == ["deferred"] and sim.n_dispatched == 0
        sim.step()
        assert order == ["deferred", "event"] and sim.n_dispatched == 1

    def test_exception_in_a_callback_propagates(self, sim):
        def boom():
            raise RuntimeError("rebalance failed")

        sim.defer(boom)
        with pytest.raises(RuntimeError, match="rebalance failed"):
            sim.run()


class TestDelayedSucceed:
    def test_fires_once_at_now_plus_delay(self, sim):
        ev = sim.event()
        ev.succeed("v", delay=1.5)
        assert ev.triggered and not ev.processed
        with pytest.raises(RuntimeError):
            ev.succeed("again")
        assert sim.run(until=ev) == "v"
        assert sim.now == 1.5 and sim.n_dispatched == 1

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.event().succeed(delay=-1.0)
