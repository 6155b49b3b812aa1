"""Event-contract tests of the fused completion paths (DESIGN.md).

A fluid task's ``done`` is completed in place by the resource's timer, and
deferred rebalances are an end-of-timestep hook of the run loop rather than
heap entries.  Neither may change *when* or *in which order* anything
observable happens — these tests pin the orders and the edge cases the
fusion could have moved.
"""

import pytest

from repro.machine import CpuModel, NodeTopology, PhaseProfile, PhaseTable
from repro.simkit import Event, FluidResource, Simulator
from tests.simkit.helpers import EqualShareAllocator


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
        caller = [None]

        class MidpointRng:
            """Every draw yields speed exactly 1.0, so all streams stay in
            lock-step and every round is a four-way same-timestamp finish."""

            def random(self):
                draws.append(caller[0])
                return 0.5

        cpu._rng = MidpointRng()
        placement = topo.place(4)

        def stream(k):
            for _ in range(3):
                caller[0] = f"s{k}"
                yield cpu.compute(k, placement[k], "work", 1.0e9)

        for k in range(4):
            sim.process(stream(k), name=f"s{k}")
        sim.run()
        assert draws == [f"s{k}" for k in range(4)] * 3
        assert sim.now == pytest.approx(3.0)

    def test_completion_callback_may_resubmit(self, sim):
        """Callbacks run after the engine state is consistent: they can
        re-enter ``submit`` of the very resource completing."""
        cpu = FluidResource(sim, EqualShareAllocator(2.0), name="cpu")
        first = cpu.submit(2.0)
        other = cpu.submit(10.0)
        follow_up = []

        first.done.add_callback(lambda _ev: follow_up.append(cpu.submit(4.0)))
        sim.run()
        # Rate 1 each throughout: the follow-up ends at t = 2 + 4, ``other``
        # then has 10 - 6 = 4 units left at the full rate 2.
        assert follow_up[0].finish_time == pytest.approx(6.0)
        assert other.finish_time == pytest.approx(8.0)
        stats = cpu.stats()
        # Finish + resubmit at t = 2 are one rebalance.
        assert stats["n_rebalances"] == 4 and stats["n_coalesced"] == 2


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

    def test_timestep_drains_before_the_clock_advances(self, sim):
        order = []

        def at_two(_ev):
            sim.defer(lambda: order.append(("deferred", sim.now)))

        sim.timeout(2.0).add_callback(at_two)
        sim.timeout(3.0).add_callback(lambda _e: order.append(("three", sim.now)))
        sim.run()
        assert order == [("deferred", 2.0), ("three", 3.0)]

    def test_exception_in_a_callback_propagates(self, sim):
        def boom():
            raise RuntimeError("rebalance failed")

        sim.defer(boom)
        with pytest.raises(RuntimeError, match="rebalance failed"):
            sim.run()


class TestDelayedSucceed:
    def test_fires_once_at_now_plus_delay(self, sim):
        ev = Event(sim)
        ev.succeed("v", delay=1.5)
        assert ev.triggered and not ev.processed
        with pytest.raises(RuntimeError):
            ev.succeed("again")
        sim.run()
        assert ev.value == "v"
        assert sim.now == 1.5 and sim.n_dispatched == 1

    def test_negative_delay_rejected(self, sim):
        ev = Event(sim)
        for delay in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="delay must be finite and >= 0"):
                ev.succeed(delay=delay)
        assert not ev.triggered
